package switching

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestStatsCountersMatchEvents pins the one event → counter mapping
// (Stats.counter) to the two other names a counter has: every Stats
// field is counted by exactly one event type, each counted type lands
// in exactly one field, and that type's obs registry key is
// "switching/" plus the field's json tag.
func TestStatsCountersMatchEvents(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	countedBy := make([][]obs.EventType, v.NumField())
	for et := obs.EventType(1); et != 0; et++ {
		c := st.counter(et)
		if c == nil {
			continue
		}
		i := fieldIndex(v, c)
		if i < 0 {
			t.Errorf("%v counts into no Stats field", et)
			continue
		}
		countedBy[i] = append(countedBy[i], et)
		tag, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if got, want := obs.CounterKey(et), "switching/"+tag; got != want {
			t.Errorf("%v: registry key %q, want %q (Stats.%s)", et, got, want, v.Type().Field(i).Name)
		}
	}
	for i, ts := range countedBy {
		if len(ts) != 1 {
			t.Errorf("Stats.%s is counted by %v, want exactly one event type", v.Type().Field(i).Name, ts)
		}
	}
}

// fieldIndex returns the index of the struct field p points at in v, or
// -1 when p points elsewhere.
func fieldIndex(v reflect.Value, p *uint64) int {
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Addr().Interface() == any(p) {
			return i
		}
	}
	return -1
}
