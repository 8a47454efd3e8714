package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestResetStates re-arms a timer from each of its three states and
// checks what fires, when, and that every arm takes exactly one event id.
func TestResetStates(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	tm := s.After(10*time.Millisecond, func() { fired = append(fired, s.Now()) })

	// Pending: the earlier arm is cancelled, the new one fires.
	id := s.nextID
	tm.Reset(30 * time.Millisecond)
	if s.nextID != id+1 {
		t.Fatalf("Reset of a pending timer took %d ids, want 1", s.nextID-id)
	}
	if !tm.Active() || tm.When() != 30*time.Millisecond || s.Pending() != 1 {
		t.Fatalf("after pending Reset: active=%v when=%v pending=%d", tm.Active(), tm.When(), s.Pending())
	}
	s.RunUntil(20 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("superseded arm fired at %v", fired)
	}
	s.RunUntil(30 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 30*time.Millisecond {
		t.Fatalf("fired = %v, want [30ms]", fired)
	}

	// Fired: the same handle and callback run again.
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
	id = s.nextID
	tm.Reset(5 * time.Millisecond)
	if s.nextID != id+1 {
		t.Fatalf("Reset of a fired timer took %d ids, want 1", s.nextID-id)
	}
	s.RunUntil(time.Second)
	if len(fired) != 2 || fired[1] != 35*time.Millisecond {
		t.Fatalf("fired = %v, want second firing at 35ms", fired)
	}

	// Stopped: Reset revives it; the stopped arm stays dead.
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	id = s.nextID
	tm.Reset(2 * time.Second)
	if s.nextID != id+1 {
		t.Fatalf("Reset of a stopped timer took %d ids, want 1", s.nextID-id)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 3*time.Second {
		t.Fatalf("fired = %v, want third firing at 3s", fired)
	}
	if tm.Stop() {
		t.Error("Stop after firing reported true")
	}

	// A negative delay clamps to now, behind what is already queued there.
	var order []string
	s.Schedule(s.Now(), func() { order = append(order, "queued") })
	neg := s.After(time.Hour, func() { order = append(order, "reset") })
	neg.Reset(-time.Second)
	s.RunUntil(s.Now())
	if len(order) != 2 || order[0] != "queued" || order[1] != "reset" {
		t.Errorf("order = %v, want [queued reset]", order)
	}
}

// TestResetEqualsStopAfter runs the same script twice — once re-arming
// with Reset, once with Stop followed by After — and requires the same
// firing order and the same id consumption.
func TestResetEqualsStopAfter(t *testing.T) {
	run := func(useReset bool) (log []int, ids uint64) {
		s := New(3)
		rng := rand.New(rand.NewSource(99))
		timers := make([]*Timer, 40)
		for i := range timers {
			i := i
			timers[i] = s.After(time.Duration(rng.Intn(50))*time.Millisecond, func() { log = append(log, i) })
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(timers))
			d := time.Duration(rng.Intn(50)) * time.Millisecond
			if useReset {
				timers[i].Reset(d)
			} else {
				i := i
				timers[i].Stop()
				timers[i] = s.After(d, func() { log = append(log, i) })
			}
			if step%7 == 0 {
				s.RunUntil(s.Now() + time.Duration(rng.Intn(20))*time.Millisecond)
			}
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return log, s.nextID
	}
	a, aIDs := run(true)
	b, bIDs := run(false)
	if aIDs != bIDs {
		t.Fatalf("Reset consumed %d ids, Stop+After %d", aIDs, bIDs)
	}
	if len(a) != len(b) {
		t.Fatalf("Reset fired %d events, Stop+After %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("firing %d: Reset ran timer %d, Stop+After ran %d", i, a[i], b[i])
		}
	}
}

// TestResetCompaction is the re-arm counterpart of the stop-heavy test:
// a wedge timer that is re-armed on every token sighting and (almost)
// never fires must not grow the queue, and every call slot that
// compaction and popping free must hold no callback or handle.
func TestResetCompaction(t *testing.T) {
	s := New(1)
	s.Schedule(time.Hour, func() {})
	fired := 0
	tm := s.After(time.Minute, func() { fired++ })
	for i := 0; i < 10000; i++ {
		tm.Reset(time.Minute + time.Duration(i)*time.Millisecond)
		if s.Pending() != 2 {
			t.Fatalf("Pending = %d after reset %d, want 2", s.Pending(), i)
		}
		if s.queued > 128 {
			t.Fatalf("queue holds %d entries with 2 live events", s.queued)
		}
	}
	checkFreeSlots(t, s, "after compaction")
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("re-armed timer fired %d times, want 1", fired)
	}
	if free := freeSlots(s); len(free) != len(s.calls) {
		t.Fatalf("drained queue: %d of %d call slots free", len(free), len(s.calls))
	}
	checkFreeSlots(t, s, "after the queue drained")
}

// freeSlots walks the free list of call slots.
func freeSlots(s *Sim) []int32 {
	var free []int32
	for slot := s.freeSlot; slot >= 0 && len(free) <= len(s.calls); slot = s.next[slot] {
		free = append(free, slot)
	}
	return free
}

// checkFreeSlots fails if a free call slot still holds a callback or
// handle, if the free slots and the slots linked from the open buckets
// do not partition the table, or if the recent table misnames a bucket.
func checkFreeSlots(t *testing.T, s *Sim, when string) {
	t.Helper()
	seen := make([]bool, len(s.calls))
	mark := func(slot int32, what string) {
		if seen[slot] {
			t.Fatalf("%s: call slot %d is on two lists (last: %s)", when, slot, what)
		}
		seen[slot] = true
	}
	free := freeSlots(s)
	for _, slot := range free {
		mark(slot, "free list")
		if c := s.calls[slot]; c.fn != nil || c.t != nil {
			t.Fatalf("%s: free call slot %d still holds a callback or handle", when, slot)
		}
	}
	queued := 0
	for i, in := range s.heap {
		if in.head < 0 && i != 0 {
			t.Fatalf("%s: heap element %d, %+v, is drained but not the root", when, i, in)
		}
		last := int32(-1)
		for slot := in.head; slot >= 0; slot = s.next[slot] {
			mark(slot, "bucket")
			queued++
			last = slot
		}
		if r := s.recent[recentIndex(in.when)]; r.first == in.first && (!r.open || r.when != in.when || r.tail != last) {
			t.Fatalf("%s: the table names bucket %+v as %+v, whose tail is %d", when, in, r, last)
		}
	}
	if queued != s.queued || len(free)+queued != len(s.calls) {
		t.Fatalf("%s: %d free + %d queued slots (counter %d), table holds %d",
			when, len(free), queued, s.queued, len(s.calls))
	}
}

// TestQueueEntryHasNoPointers pins the queue's design: the heap's
// buckets, the recent table and the links between entries are plain
// words, so sifting and linking need no GC write barrier. A field that
// can hold a pointer belongs in the call table.
func TestQueueEntryHasNoPointers(t *testing.T) {
	var s Sim
	for _, typ := range []reflect.Type{
		reflect.TypeOf(s.heap).Elem(),
		reflect.TypeOf(s.recent).Elem(),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !plainWord(f.Type) {
				t.Errorf("%v: field %s is a %v, which can hold a pointer", typ, f.Name, f.Type)
			}
		}
	}
	if typ := reflect.TypeOf(s.next).Elem(); !plainWord(typ) {
		t.Errorf("entry links are %v, which can hold a pointer", typ)
	}
}

// plainWord reports whether a value of typ can hold no pointer.
func plainWord(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// collide returns the first instant after when that hashes to when's
// entry in Sim.recent.
func collide(when time.Duration) time.Duration {
	for c := when + 1; ; c++ {
		if recentIndex(c) == recentIndex(when) {
			return c
		}
	}
}

// TestSecondBucketForOneInstant builds the state the join rule allows:
// two open buckets for one instant, because another instant took the
// table entry in between. It then stops, re-arms and compacts across
// them, schedules into an instant whose bucket has closed, and requires
// every entry to fire in (when, id) order.
func TestSecondBucketForOneInstant(t *testing.T) {
	s := New(1)
	const T, T2 = 10 * time.Millisecond, 30 * time.Millisecond
	Tc := collide(T)
	if recentIndex(T2) == recentIndex(T) {
		t.Fatal("T2 must not share T's table entry")
	}
	var got []string
	fire := func(label string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%v", label, s.Now())) }
	}
	// keys lists the open buckets' heap keys in firing order.
	keys := func() []instant {
		k := append([]instant(nil), s.heap...)
		sort.Slice(k, func(i, j int) bool { return less(&k[i], &k[j]) })
		return k
	}

	a := s.At(T, fire("a"))  // id 0: opens the first bucket for T
	s.Schedule(T, fire("1")) // id 1: joins it
	s.At(Tc, fire("2"))      // id 2: Tc takes T's table entry
	b := s.At(T, fire("b"))  // id 3: a miss, so a second bucket for T
	s.Schedule(T, fire("4")) // id 4: joins the second bucket, not the first
	k := keys()
	if len(k) != 3 || k[0].when != T || k[0].first != 0 || k[1].when != T || k[1].first != 3 || k[2].when != Tc {
		t.Fatalf("heap keys = %+v, want (T,0) (T,3) (Tc,2)", k)
	}
	tail := s.recent[recentIndex(T)].tail
	if k[1].head != b.slot || s.next[k[1].head] != tail || s.next[tail] != -1 {
		t.Fatalf("second bucket for T = %+v with tail %d, want b's arm then id 4", k[1], tail)
	}
	checkFreeSlots(t, s, "two buckets for T")

	a.Stop()                         // id 0 dies in the first bucket, which keeps its key
	b.Reset(T)                       // id 5: id 3 dies, and the new arm joins the second bucket
	for i := 0; s.stopped > 0; i++ { // ids 6, 7, ...: stopped fillers until compaction runs
		when := T
		if i%2 == 1 {
			when = T2
		}
		s.At(when, fire("filler")).Stop()
	}
	if n := len(s.heap); n != 3 {
		t.Fatalf("after compaction %d buckets are open, want 3: T2's held only dead entries", n)
	}
	checkFreeSlots(t, s, "after compaction")
	s.Schedule(T, fire("T after compaction")) // the second bucket is still T's latest
	s.Schedule(T2, fire("T2"))                // T2's bucket closed: a new one opens
	if n := len(s.heap); n != 4 {
		t.Fatalf("%d buckets are open, want 4", n)
	}

	s.RunUntil(T)                        // drains and closes both buckets for T
	s.Schedule(T, fire("T after drain")) // the table names a closed bucket: a new one opens
	checkFreeSlots(t, s, "after RunUntil")
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	checkFreeSlots(t, s, "after the queue drained")
	want := []string{
		"1@10ms", "4@10ms", "b@10ms", "T after compaction@10ms", "T after drain@10ms",
		fmt.Sprintf("2@%v", Tc), "T2@30ms",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if s.Pending() != 0 || s.queued != 0 {
		t.Fatalf("drained queue: Pending = %d, queued = %d", s.Pending(), s.queued)
	}
}

// --- model-based property test -------------------------------------------

// firing is one executed event as a test observes it.
type firing struct {
	tag int
	at  time.Duration
}

// world is the scheduler surface the property test drives, implemented
// by the real Sim and by a naive sorted-slice reference.
type world interface {
	now() time.Duration
	schedule(when time.Duration, tag int)
	at(when time.Duration, tag int) (handle int)
	stop(handle int) bool
	reset(handle int, d time.Duration)
	active(handle int) bool
	pending() int
	step() bool
	runUntil(deadline time.Duration)
	log() []firing
}

// onFire is what every event does when it runs, in both worlds: log
// itself, and — depending on its tag alone — schedule a child or re-arm
// its own handle (at most three times per handle), so handlers scheduling
// from inside Step are part of what is compared.
func onFire(w world, rearms map[int]int, tag, handle int, record func(firing)) {
	record(firing{tag, w.now()})
	if tag%7 == 0 {
		w.schedule(w.now()+time.Duration(tag%13)*time.Millisecond, tag+1_000_003)
	}
	if handle >= 0 && tag%3 == 0 && rearms[handle] < 3 {
		rearms[handle]++
		w.reset(handle, time.Duration(tag%5)*time.Millisecond)
	}
	// A burst at the current instant: two children, each bursting again,
	// three generations deep.
	if tag%11 == 1 && tag < 3*burstStep {
		w.schedule(w.now(), tag+burstStep)
		w.schedule(w.now(), tag+2*burstStep)
	}
}

// burstStep separates a burst's generations; it is a multiple of 11, so a
// child bursts like its parent.
const burstStep = 11_000_011

// pickWhen draws the timestamp of the property test's next operation.
// Most land on few distinct instants: the current one, or one of the
// instants just past each of the next four whole milliseconds that share
// table entry 0 — so a bucket for one of them is routinely displaced by
// another's, and a second bucket for the first has to open. The rest
// spread over 40 ms, some in the past.
func pickWhen(rng *rand.Rand, now time.Duration) time.Duration {
	switch k := rng.Intn(10); {
	case k < 3:
		return now
	case k < 7:
		c := now.Truncate(time.Millisecond) + time.Duration(rng.Intn(4))*time.Millisecond
		for recentIndex(c) != 0 {
			c++
		}
		return c
	default:
		return now + time.Duration(rng.Intn(40)-2)*time.Millisecond
	}
}

// twoBucketsForOneInstant reports whether two open buckets share a
// timestamp.
func twoBucketsForOneInstant(s *Sim) bool {
	seen := make(map[time.Duration]bool, len(s.heap))
	for _, in := range s.heap {
		if seen[in.when] {
			return true
		}
		seen[in.when] = true
	}
	return false
}

type realWorld struct {
	s      *Sim
	timers []*Timer
	rearms map[int]int
	fired  []firing
	// highWater is the most entries the queue has held at once.
	highWater int
}

// grew notes a queue length the queue reached.
func (w *realWorld) grew(n int) { w.highWater = max(w.highWater, n) }

func (w *realWorld) now() time.Duration { return w.s.Now() }
func (w *realWorld) schedule(when time.Duration, tag int) {
	w.s.Schedule(when, func() { onFire(w, w.rearms, tag, -1, w.record) })
	w.grew(w.s.queued)
}
func (w *realWorld) at(when time.Duration, tag int) int {
	h := len(w.timers)
	w.timers = append(w.timers, nil)
	w.timers[h] = w.s.At(when, func() { onFire(w, w.rearms, tag, h, w.record) })
	w.grew(w.s.queued)
	return h
}
func (w *realWorld) stop(h int) bool { return w.timers[h].Stop() }
func (w *realWorld) reset(h int, d time.Duration) {
	// Reset pushes the new arm before it may compact.
	w.grew(w.s.queued + 1)
	w.timers[h].Reset(d)
}
func (w *realWorld) active(h int) bool               { return w.timers[h].Active() }
func (w *realWorld) pending() int                    { return w.s.Pending() }
func (w *realWorld) step() bool                      { return w.s.Step() }
func (w *realWorld) runUntil(deadline time.Duration) { w.s.RunUntil(deadline) }
func (w *realWorld) log() []firing                   { return w.fired }
func (w *realWorld) record(f firing)                 { w.fired = append(w.fired, f) }

// refWorld is the reference: every live event in one slice, re-sorted by
// (when, id) before each pop. No heap, no lazy deletion, no compaction.
type refEvent struct {
	when   time.Duration
	id     uint64
	tag    int
	handle int // -1 for schedule()
}

type refWorld struct {
	t      time.Duration
	nextID uint64
	events []refEvent
	// tags[h] is handle h's callback tag; armed[h] the id of its pending
	// event.
	tags   []int
	armed  map[int]uint64
	rearms map[int]int
	fired  []firing
}

func (w *refWorld) now() time.Duration { return w.t }
func (w *refWorld) add(when time.Duration, tag, handle int) {
	if when < w.t {
		when = w.t
	}
	w.events = append(w.events, refEvent{when, w.nextID, tag, handle})
	if handle >= 0 {
		w.armed[handle] = w.nextID
	}
	w.nextID++
}
func (w *refWorld) schedule(when time.Duration, tag int) { w.add(when, tag, -1) }
func (w *refWorld) at(when time.Duration, tag int) int {
	h := len(w.tags)
	w.tags = append(w.tags, tag)
	w.add(when, tag, h)
	return h
}
func (w *refWorld) remove(id uint64) {
	for i, e := range w.events {
		if e.id == id {
			w.events = append(w.events[:i], w.events[i+1:]...)
			return
		}
	}
}
func (w *refWorld) stop(h int) bool {
	id, ok := w.armed[h]
	if !ok {
		return false
	}
	delete(w.armed, h)
	w.remove(id)
	return true
}
func (w *refWorld) reset(h int, d time.Duration) {
	w.stop(h)
	if d < 0 {
		d = 0
	}
	w.add(w.t+d, w.tags[h], h)
}
func (w *refWorld) active(h int) bool { _, ok := w.armed[h]; return ok }
func (w *refWorld) pending() int      { return len(w.events) }
func (w *refWorld) sort() {
	sort.Slice(w.events, func(i, j int) bool {
		a, b := w.events[i], w.events[j]
		if a.when != b.when {
			return a.when < b.when
		}
		return a.id < b.id
	})
}
func (w *refWorld) step() bool {
	if len(w.events) == 0 {
		return false
	}
	w.sort()
	e := w.events[0]
	w.events = w.events[1:]
	if e.handle >= 0 {
		delete(w.armed, e.handle)
	}
	w.t = e.when
	onFire(w, w.rearms, e.tag, e.handle, w.record)
	return true
}
func (w *refWorld) runUntil(deadline time.Duration) {
	for len(w.events) > 0 {
		w.sort()
		if w.events[0].when > deadline {
			break
		}
		w.step()
	}
	if w.t < deadline {
		w.t = deadline
	}
}
func (w *refWorld) log() []firing   { return w.fired }
func (w *refWorld) record(f firing) { w.fired = append(w.fired, f) }

// TestSchedulerMatchesReference drives random Schedule/At/Stop/Reset/
// Step/RunUntil sequences — stop- and reset-heavy enough to compact the
// queue many times over, and tie-heavy enough (pickWhen, onFire's bursts)
// that instants are shared, joined at the current time and given second
// buckets — through the real scheduler and the sorted-slice reference,
// and requires identical firing order, firing times, return values,
// clocks and pending counts throughout.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := New(seed)
		real := &realWorld{s: sim, rearms: map[int]int{}}
		ref := &refWorld{armed: map[int]uint64{}, rearms: map[int]int{}}
		worlds := [2]world{real, ref}
		handles, compactions, doubled, tag := 0, 0, 0, 0
		for op := 0; op < 3000; op++ {
			before := sim.queued
			when := pickWhen(rng, real.now())
			pick := 0
			if handles > 0 {
				pick = rng.Intn(handles)
			}
			tag++
			switch k := rng.Intn(100); {
			case k < 20:
				for _, w := range worlds {
					w.schedule(when, tag)
				}
			case k < 45:
				for _, w := range worlds {
					w.at(when, tag)
				}
				handles++
			case k < 65 && handles > 0:
				if a, b := real.stop(pick), ref.stop(pick); a != b {
					t.Fatalf("seed %d op %d: Stop = %v, reference %v", seed, op, a, b)
				}
			case k < 85 && handles > 0:
				for _, w := range worlds {
					w.reset(pick, when-w.now())
				}
			case k < 93:
				if a, b := real.step(), ref.step(); a != b {
					t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, op, a, b)
				}
			default:
				for _, w := range worlds {
					w.runUntil(when)
				}
			}
			if sim.queued < before-1 {
				compactions++
			}
			if twoBucketsForOneInstant(sim) {
				doubled++
			}
			if real.now() != ref.now() || real.pending() != ref.pending() {
				t.Fatalf("seed %d op %d: now/pending = %v/%d, reference %v/%d",
					seed, op, real.now(), real.pending(), ref.now(), ref.pending())
			}
			if handles > 0 && real.active(pick) != ref.active(pick) {
				t.Fatalf("seed %d op %d: Active(%d) = %v, reference %v",
					seed, op, pick, real.active(pick), ref.active(pick))
			}
			compareLogs(t, seed, op, real.log(), ref.log())
		}
		for _, w := range worlds {
			for w.step() {
			}
		}
		compareLogs(t, seed, -1, real.log(), ref.log())
		if len(real.log()) < 1000 {
			t.Fatalf("seed %d: only %d events fired; the script is not exercising the queue", seed, len(real.log()))
		}
		if compactions == 0 {
			t.Fatalf("seed %d: the queue never compacted; the script is not stop-heavy enough", seed)
		}
		if doubled == 0 {
			t.Fatalf("seed %d: no instant ever had two buckets; the script is not tie-heavy enough", seed)
		}
		if len(sim.calls) > real.highWater {
			t.Fatalf("seed %d: call table holds %d slots, queue high-water mark %d: slots are not reused",
				seed, len(sim.calls), real.highWater)
		}
	}
}

func compareLogs(t *testing.T, seed int64, op int, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d op %d: %d events fired, reference %d", seed, op, len(got), len(want))
	}
	for i := len(got) - 1; i >= 0 && i >= len(got)-64; i-- {
		if got[i] != want[i] {
			t.Fatalf("seed %d op %d: firing %d = %+v, reference %+v", seed, op, i, got[i], want[i])
		}
	}
}

// --- allocation gates ------------------------------------------------------

// TestScheduleStepAllocs: once the queue's tables have grown, a
// handle-less event costs no allocation to schedule or to run — neither
// on an instant of its own nor in a same-instant burst, where handlers
// schedule at the current time burstDepth deep.
func TestScheduleStepAllocs(t *testing.T) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 256; i++ {
		s.Schedule(time.Hour+time.Duration(i), nop)
	}
	depth := 0
	var burst func()
	burst = func() {
		if depth < burstDepth {
			depth++
			s.Schedule(s.Now(), burst)
			s.Schedule(s.Now(), nop)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.Schedule(s.Now()+time.Microsecond, nop)
		s.Schedule(s.Now()+2*time.Microsecond, nop)
		s.Step()
		s.Step()
		depth = 0
		s.Schedule(s.Now()+time.Microsecond, burst)
		s.RunUntil(s.Now() + time.Microsecond)
	}); n != 0 {
		t.Errorf("Schedule+Step allocates %v per run, want 0", n)
	}
	if depth != burstDepth || s.Pending() != 256 {
		t.Fatalf("burst reached depth %d with %d pending, want %d with 256", depth, s.Pending(), burstDepth)
	}
}

// burstDepth is how many generations the allocation gates' same-instant
// bursts run.
const burstDepth = 8

// TestResetAllocs: re-arming allocates nothing — neither the periodic
// tick (fire, Reset from the callback), nor the wedge timer (Reset while
// pending, compaction included), nor a timer that re-arms itself at the
// current instant burstDepth deep.
func TestResetAllocs(t *testing.T) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 256; i++ {
		s.Schedule(time.Hour+time.Duration(i), nop)
	}
	var tick *Timer
	tick = s.After(time.Millisecond, func() { tick.Reset(time.Millisecond) })
	wedge := s.After(time.Minute, nop)
	for i := 0; i < 1000; i++ { // grow the queue to its working size
		wedge.Reset(time.Minute)
	}
	depth := 0
	var burst *Timer
	burst = s.After(time.Hour, func() {
		if depth < burstDepth {
			depth++
			burst.Reset(0)
			s.Schedule(s.Now(), nop)
		}
	})
	if n := testing.AllocsPerRun(1000, func() {
		s.Step()
		wedge.Reset(time.Minute)
		wedge.Reset(time.Minute)
		depth = 0
		burst.Reset(0)
		s.RunUntil(s.Now())
	}); n != 0 {
		t.Errorf("Timer.Reset allocates %v per run, want 0", n)
	}
	if !tick.Active() || !wedge.Active() || depth != burstDepth {
		t.Errorf("re-armed timers went inactive, or the burst stopped at depth %d", depth)
	}
}

// BenchmarkScheduleStep is the steady-state cost of one handle-less
// event on a queue held at a realistic depth.
func BenchmarkScheduleStep(b *testing.B) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 512; i++ {
		s.Schedule(time.Hour+time.Duration(i)*time.Microsecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now()+time.Duration(i%97)*time.Microsecond, nop)
		s.Step()
	}
}

// BenchmarkTimerReset is the wedge-timer pattern: one handle re-armed
// while pending, against a standing population.
func BenchmarkTimerReset(b *testing.B) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(1000+i)*time.Hour, nop)
	}
	tm := s.After(time.Minute, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Minute)
	}
}

// BenchmarkTiedInstants is one event of the shape the workloads run: ten
// members, each with three self-re-arming ticks of 20, 25 and 50 ms in
// the same phase, so every tick instant is shared by ten or more timers.
// The 20 ms tick multicasts — nine deliveries at one instant 1 ms on,
// each scheduling a follow-up at the instant it runs, a same-instant
// burst — and re-arms the member's wedge timer. About 100 entries stay
// queued. It reports the mean queued entries and open instants next to
// the time per event.
func BenchmarkTiedInstants(b *testing.B) {
	const members = 10
	s := New(1)
	nop := func() {}
	deliver := func() { s.Schedule(s.Now(), nop) }
	for m := 0; m < members; m++ {
		wedge := s.After(time.Second, nop)
		for _, period := range []time.Duration{20 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond} {
			period := period
			var tick *Timer
			tick = s.After(period, func() {
				tick.Reset(period)
				if period != 20*time.Millisecond {
					return
				}
				wedge.Reset(time.Second)
				for r := 1; r < members; r++ {
					s.Schedule(s.Now()+time.Millisecond, deliver)
				}
			})
		}
	}
	s.RunUntil(time.Second) // warm: tables at their working size
	var entries, instants, samples int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		if i%256 == 0 {
			entries += s.Pending()
			instants += len(s.heap)
			samples++
		}
	}
	b.ReportMetric(float64(entries)/float64(samples), "queued")
	b.ReportMetric(float64(instants)/float64(samples), "instants")
}
