package des

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestAfterOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestEqualTimesFIFOTieBreak(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO tie-break violated: order = %v", order)
		}
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	s := New(1)
	fired := time.Duration(-1)
	s.After(10*time.Millisecond, func() {
		s.At(0, func() { fired = s.Now() })
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 10*time.Millisecond {
		t.Errorf("past event fired at %v, want 10ms", fired)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	s := New(1)
	ran := false
	s.After(-5*time.Second, func() { ran = true })
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran || s.Now() != 0 {
		t.Errorf("negative delay: ran=%v now=%v", ran, s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	if !tm.Active() {
		t.Error("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Error("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("stopped timer fired")
	}
	if tm.Active() {
		t.Error("stopped timer still active")
	}
}

func TestStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Error("Stop after fire returned true")
	}
	var nilTimer *Timer
	if nilTimer.Stop() || nilTimer.Active() {
		t.Error("nil timer misbehaved")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 25} {
		d := d * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(15 * time.Millisecond)
	if len(fired) != 3 {
		t.Errorf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 15*time.Millisecond {
		t.Errorf("Now = %v, want 15ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	// Advancing to an idle deadline moves the clock.
	s.RunUntil(100 * time.Millisecond)
	if s.Now() != 100*time.Millisecond || s.Pending() != 0 {
		t.Errorf("after second RunUntil: now=%v pending=%d", s.Now(), s.Pending())
	}
}

func TestRunEventBound(t *testing.T) {
	s := New(1)
	var tick func()
	tick = func() { s.After(time.Millisecond, tick) }
	s.After(time.Millisecond, tick)
	if err := s.Run(100); err == nil {
		t.Error("Run did not report exceeding the event bound")
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(nil) did not panic")
		}
	}()
	New(1).At(0, nil)
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var samples []int64
		for i := 0; i < 5; i++ {
			s.After(time.Duration(i)*time.Millisecond, func() {
				samples = append(samples, s.Rand().Int63())
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return samples
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different executions")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical random streams")
	}
}

func TestExecutedCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 7 {
		t.Errorf("Executed = %d, want 7", s.Executed())
	}
}

// Property: events always fire in non-decreasing time order, regardless
// of the order they were scheduled in.
func TestMonotonicFiringProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fired []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Microsecond
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimerWhen(t *testing.T) {
	s := New(1)
	tm := s.After(42*time.Millisecond, func() {})
	if tm.When() != 42*time.Millisecond {
		t.Errorf("When = %v, want 42ms", tm.When())
	}
}

// TestStoppedTimerCompaction exercises the stop-heavy workload of fifo
// resend/heartbeat/recovery timers: almost every scheduled timer is
// cancelled before firing. The queue must shed stopped entries instead
// of retaining them until they reach the front of the queue.
func TestStoppedTimerCompaction(t *testing.T) {
	s := New(1)
	// A far-future live event keeps the queue non-empty throughout.
	fired := false
	s.At(time.Hour, func() { fired = true })
	for i := 0; i < 10000; i++ {
		tm := s.After(time.Duration(i+1)*time.Millisecond, func() {})
		if !tm.Stop() {
			t.Fatal("Stop failed")
		}
		if s.Pending() != 1 {
			t.Fatalf("Pending = %d after stop %d, want 1", s.Pending(), i)
		}
		// Compaction must keep the raw queue bounded by ~2× the live
		// count (plus the pre-compaction floor).
		if s.queued > 128 {
			t.Fatalf("queue holds %d entries with 1 live timer", s.queued)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("live event lost by compaction")
	}
}

// TestCompactionPreservesOrder stops a random half of a large schedule
// and checks the survivors still fire in exact (when, id) order.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New(7)
	var got []int
	var want []int
	timers := make([]*Timer, 0, 3000)
	for i := 0; i < 3000; i++ {
		i := i
		d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
		timers = append(timers, s.At(d, func() { got = append(got, i) }))
	}
	rng := s.Rand()
	kept := make([]int, 0, len(timers))
	for i, tm := range timers {
		if rng.Intn(2) == 0 {
			tm.Stop()
		} else {
			kept = append(kept, i)
		}
	}
	// Expected order: by (when, id); id order equals creation order.
	sort.SliceStable(kept, func(a, b int) bool {
		return timers[kept[a]].When() < timers[kept[b]].When()
	})
	want = append(want, kept...)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d = timer %d, want %d", i, got[i], want[i])
		}
	}
}

// BenchmarkStopHeavyTimers measures the resend-timer pattern: schedule
// a timeout, cancel it almost immediately, repeat — with a standing
// population of far-out timers so stopped entries never reach the
// front of the queue on their own. Before heap compaction this retained every
// stopped timer for the whole run (O(total timers) heap); with
// compaction the queue stays at O(live timers).
func BenchmarkStopHeavyTimers(b *testing.B) {
	s := New(1)
	// Standing far-future population (heartbeats that never fire).
	for i := 0; i < 64; i++ {
		s.At(time.Duration(1000+i)*time.Hour, func() {})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Duration(i+1)*time.Microsecond, func() {})
		tm.Stop()
	}
	b.StopTimer()
	if s.queued > 1024 {
		b.Fatalf("queue grew to %d entries; compaction not effective", s.queued)
	}
}
