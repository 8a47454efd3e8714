package simnet

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestFaultCountersMatchEvents pins the one event → counter mapping
// (Stats.counter): every fault counter is counted by exactly one event
// type, each counted type lands in exactly one field, and the traffic
// counters, which no event names, are counted by none.
func TestFaultCountersMatchEvents(t *testing.T) {
	traffic := map[string]bool{"Unicasts": true, "Multicasts": true, "Delivered": true, "Duplicated": true, "WireBytes": true}
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
	}
	for i, ts := range countedBy {
		name := v.Type().Field(i).Name
		want := 1
		if traffic[name] {
			want = 0
		}
		if len(ts) != want {
			t.Errorf("Stats.%s is counted by %v, want %d event type(s)", name, ts, want)
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
