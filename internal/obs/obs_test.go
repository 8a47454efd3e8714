package obs

import (
	"testing"
	"time"
)

func TestNopIsZeroAlloc(t *testing.T) {
	r := OrNop(nil)
	if r != Nop {
		t.Fatal("OrNop(nil) != Nop")
	}
	if r.Enabled() {
		t.Fatal("Nop reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(TokenPass(time.Millisecond, 0, 1, 1, 2, 3))
		r.Record(SwitchComplete(time.Second, 2, 4, 1, 31*time.Millisecond))
	})
	if allocs != 0 {
		t.Errorf("no-op recording allocates %.1f/op, want 0", allocs)
	}
}

func TestCollectorOrder(t *testing.T) {
	c := NewCollector()
	if !c.Enabled() {
		t.Fatal("collector disabled")
	}
	e1 := WedgeTimeout(time.Millisecond, 2, 1)
	e2 := TokenRegen(2*time.Millisecond, 2, 0, 1)
	c.Record(e1)
	c.Record(e2)
	got := c.Events()
	if len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("collector mangled events: %+v", got)
	}
}

func TestMultiFansOutAndCollapses(t *testing.T) {
	if Multi() != Nop || Multi(nil, Nop) != Nop {
		t.Error("empty Multi should collapse to Nop")
	}
	c := NewCollector()
	if Multi(nil, c, Nop) != c {
		t.Error("single live recorder should be returned unwrapped")
	}
	c2 := NewCollector()
	m := Multi(c, c2)
	if !m.Enabled() {
		t.Error("multi disabled")
	}
	m.Record(Heal(time.Second))
	m.Record(Heal(2 * time.Second))
	if c.Len() != 2 || c2.Len() != 2 {
		t.Errorf("fan-out wrong: %d, %d", c.Len(), c2.Len())
	}
}

func TestFlightRecorderKeepsTail(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(EpochAdvance(time.Duration(i), 0, uint64(i)))
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, e := range snap {
		if want := uint64(6 + i); e.Epoch != want {
			t.Errorf("snapshot[%d].Epoch = %d, want %d (oldest first)", i, e.Epoch, want)
		}
	}
	if f.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", f.Dropped())
	}
	if total := uint64(len(snap)) + f.Dropped(); total != 10 {
		t.Errorf("retained + dropped = %d, want 10", total)
	}
}

func TestFlightRecorderPartial(t *testing.T) {
	f := NewFlightRecorder(0) // default size
	f.Record(Crash(time.Second, 3))
	snap := f.Snapshot()
	if len(snap) != 1 || snap[0].Type != EvCrash || f.Dropped() != 0 {
		t.Fatalf("partial ring wrong: %+v dropped=%d", snap, f.Dropped())
	}
}

func TestMergeRunsTagsInOrder(t *testing.T) {
	traces := [][]Event{
		{EpochAdvance(1, 0, 1)},
		nil,
		{EpochAdvance(2, 1, 1), EpochAdvance(3, 1, 2)},
	}
	got := MergeRuns(traces)
	if len(got) != 3 {
		t.Fatalf("merged %d events, want 3", len(got))
	}
	wantRuns := []int{0, 2, 2}
	for i, e := range got {
		if e.Run != wantRuns[i] {
			t.Errorf("event %d run = %d, want %d", i, e.Run, wantRuns[i])
		}
	}
	// MergeRuns must not mutate its input.
	if traces[2][0].Run != 0 {
		t.Error("MergeRuns mutated its input")
	}
}

func TestEventTypeNames(t *testing.T) {
	seen := map[string]bool{}
	for ty := EventType(1); ty < eventTypeCount; ty++ {
		s := ty.String()
		if s == "" || seen[s] {
			t.Errorf("type %d has empty or duplicate name %q", ty, s)
		}
		seen[s] = true
	}
	for _, m := range []uint8{1, 2, 3, 4} {
		got, ok := modeByName(ModeName(m))
		if !ok || got != m {
			t.Errorf("mode %d does not round-trip (%q)", m, ModeName(m))
		}
	}
}
