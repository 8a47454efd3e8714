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
// checks what fires and when.
func TestResetStates(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	tm := s.After(10*time.Millisecond, func() { fired = append(fired, s.Now()) })

	// Pending: the earlier arm is cancelled, the new one fires.
	tm.Reset(30 * time.Millisecond)
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
	tm.Reset(5 * time.Millisecond)
	s.RunUntil(time.Second)
	if len(fired) != 2 || fired[1] != 35*time.Millisecond {
		t.Fatalf("fired = %v, want second firing at 35ms", fired)
	}

	// Stopped: Reset revives it; the stopped arm stays dead.
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	tm.Reset(2 * time.Second)
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
// firing order.
func TestResetEqualsStopAfter(t *testing.T) {
	run := func(useReset bool) (log []int) {
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
		return log
	}
	a, b := run(true), run(false)
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
// handle, if the free slots and the slots linked from the buckets do not
// partition the table, if the run is not strictly descending by when —
// one bucket per instant —, if a bucket's tail is not its last linked
// slot, or if a bucket other than the root is drained.
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
	for i, in := range s.run {
		if i > 0 && s.run[i-1].when <= in.when {
			t.Fatalf("%s: bucket %d, %+v, follows %+v: the run is not strictly descending", when, i, in, s.run[i-1])
		}
		if in.head < 0 && i != len(s.run)-1 {
			t.Fatalf("%s: bucket %d, %+v, is drained but not the root", when, i, in)
		}
		last := int32(-1)
		for slot := in.head; slot >= 0; slot = s.next[slot] {
			mark(slot, "bucket")
			queued++
			last = slot
		}
		if in.tail != last {
			t.Fatalf("%s: bucket %d, %+v, ends at slot %d", when, i, in, last)
		}
	}
	if queued != s.queued || len(free)+queued != len(s.calls) {
		t.Fatalf("%s: %d free + %d queued slots (counter %d), table holds %d",
			when, len(free), queued, s.queued, len(s.calls))
	}
}

// TestQueueEntryHasNoPointers pins the queue's design: the run's
// buckets and the links between entries are plain words, so shifting and
// linking need no GC write barrier. A field that can hold a pointer
// belongs in the call table.
func TestQueueEntryHasNoPointers(t *testing.T) {
	var s Sim
	typ := reflect.TypeOf(s.run).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !plainWord(f.Type) {
			t.Errorf("%v: field %s is a %v, which can hold a pointer", typ, f.Name, f.Type)
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

// TestOneBucketPerInstant pins the run's shape through every way in and
// out of a bucket: joins at the tail, a new instant inserted between two
// others, stops and re-arms inside a shared instant, a compaction that
// drops a dead tail and a bucket of dead entries, and a handler that
// schedules into the drained root it runs from. Every entry must fire in
// (when, call order).
func TestOneBucketPerInstant(t *testing.T) {
	s := New(1)
	const T, Tmid, T2 = 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond
	var got []string
	fire := func(label string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%v", label, s.Now())) }
	}
	whens := func() []time.Duration {
		var w []time.Duration
		for _, in := range s.run {
			w = append(w, in.when)
		}
		return w
	}

	a := s.At(T, fire("a"))  // T's bucket
	s.Schedule(T, fire("1")) // joins it
	s.At(T2, fire("2"))      // a later instant: inserted at the latest end
	b := s.At(T, fire("b"))  // joins T's bucket, the root
	s.Schedule(T, fire("4"))
	if w := whens(); !reflect.DeepEqual(w, []time.Duration{T2, T}) {
		t.Fatalf("run = %v, want [T2 T]", w)
	}
	if root := s.run[1]; root.head != a.slot || s.next[b.slot] != root.tail || s.next[root.tail] != -1 {
		t.Fatalf("T's bucket = %+v, want a's arm first and entry 4 last, after b's", root)
	}
	checkFreeSlots(t, s, "two instants")

	a.Stop()   // a dies at the head of T's bucket
	b.Reset(T) // b's first arm dies, and the new arm joins at the tail
	for i := 0; s.stopped > 0; i++ {
		// Stopped fillers until compaction runs: T's bucket ends in a
		// dead filler, and Tmid's bucket holds only dead entries.
		when := Tmid
		if i%2 == 1 {
			when = T
		}
		s.At(when, fire("filler")).Stop()
	}
	if w := whens(); !reflect.DeepEqual(w, []time.Duration{T2, T}) {
		t.Fatalf("after compaction run = %v, want [T2 T]: Tmid's bucket held only dead entries", w)
	}
	checkFreeSlots(t, s, "after compaction")
	s.Schedule(T, fire("T after compaction")) // joins at the tail compaction restored
	s.Schedule(Tmid, fire("mid"))             // a new instant between T2 and T
	s.Schedule(T2, fire("T2 again"))          // joins T2's bucket past both
	if w := whens(); !reflect.DeepEqual(w, []time.Duration{T2, Tmid, T}) {
		t.Fatalf("run = %v, want [T2 Tmid T]", w)
	}
	checkFreeSlots(t, s, "three instants")

	// The last entry at T finds its bucket drained, schedules into it,
	// and the new entry runs next, at the same instant.
	s.Schedule(T, func() {
		root := s.run[len(s.run)-1]
		if root.when != T || root.head != -1 || root.tail != -1 {
			t.Errorf("root = %+v while its last entry runs, want drained at T", root)
		}
		checkFreeSlots(t, s, "drained root")
		n := len(s.run)
		s.Schedule(s.Now(), fire("into the drained root"))
		if len(s.run) != n {
			t.Errorf("scheduling at now opened a bucket: %d of them, was %d", len(s.run), n)
		}
		checkFreeSlots(t, s, "drained root joined")
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	checkFreeSlots(t, s, "after the queue drained")
	want := []string{
		"1@10ms", "4@10ms", "b@10ms", "T after compaction@10ms", "into the drained root@10ms",
		"mid@20ms", "2@30ms", "T2 again@30ms",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if s.Pending() != 0 || s.queued != 0 || len(s.run) != 0 {
		t.Fatalf("drained queue: Pending = %d, queued = %d, %d buckets", s.Pending(), s.queued, len(s.run))
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
// next four whole milliseconds, so buckets are routinely joined. The
// rest spread over 40 ms, some in the past.
func pickWhen(rng *rand.Rand, now time.Duration) time.Duration {
	switch k := rng.Intn(10); {
	case k < 3:
		return now
	case k < 7:
		return now.Truncate(time.Millisecond) + time.Duration(rng.Intn(4))*time.Millisecond
	default:
		return now + time.Duration(rng.Intn(40)-2)*time.Millisecond
	}
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
// (when, id) before each pop, where ids are handed out in call order. No
// buckets, no lazy deletion, no compaction.
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
// that instants are shared and joined at the current time — through the
// real scheduler and the sorted-slice reference, and requires identical
// firing order, firing times, return values, clocks and pending counts
// throughout, and the run's shape (checkFreeSlots: one bucket per
// instant) after every operation.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := New(seed)
		real := &realWorld{s: sim, rearms: map[int]int{}}
		ref := &refWorld{armed: map[int]uint64{}, rearms: map[int]int{}}
		worlds := [2]world{real, ref}
		handles, compactions, joins, tag := 0, 0, 0, 0
		for op := 0; op < 3000; op++ {
			queued, buckets := sim.queued, len(sim.run)
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
				// Compaction zeroes stopped; nothing else lowers it
				// outside a Step.
				stopped := sim.stopped
				if a, b := real.stop(pick), ref.stop(pick); a != b {
					t.Fatalf("seed %d op %d: Stop = %v, reference %v", seed, op, a, b)
				}
				if sim.stopped < stopped {
					compactions++
				}
			case k < 85 && handles > 0:
				// One re-arm in twenty is a storm, a wedge timer's life:
				// the handle is re-armed more times than there are live
				// entries, each arm superseding the last, so the queue
				// has to compact.
				n := 1
				if tag%20 == 0 {
					n = ref.pending() + 3
				}
				for i := 0; i < n; i++ {
					stopped := sim.stopped
					for _, w := range worlds {
						w.reset(pick, when-w.now())
					}
					if sim.stopped < stopped {
						compactions++
					}
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
			if sim.queued > queued && len(sim.run) <= buckets {
				joins++
			}
			checkFreeSlots(t, sim, fmt.Sprintf("seed %d op %d", seed, op))
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
		if joins == 0 {
			t.Fatalf("seed %d: no entry ever joined a queued instant; the script is not tie-heavy enough", seed)
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
// schedule at the current time burstDepth deep — and neither does an
// insert at either end of a deep run: the near-term events go in at its
// earliest end, and a far timer re-armed past every queued instant goes
// in at its latest, leaving a dead bucket behind until compaction.
func TestScheduleStepAllocs(t *testing.T) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 256; i++ {
		s.Schedule(time.Hour+time.Duration(i), nop)
	}
	far := s.After(2*time.Hour, nop)
	depth := 0
	var burst func()
	burst = func() {
		if depth < burstDepth {
			depth++
			s.Schedule(s.Now(), burst)
			s.Schedule(s.Now(), nop)
		}
	}
	round := func() {
		s.Schedule(s.Now()+time.Microsecond, nop)
		s.Schedule(s.Now()+2*time.Microsecond, nop)
		far.Reset(2 * time.Hour)
		s.Step()
		s.Step()
		depth = 0
		s.Schedule(s.Now()+time.Microsecond, burst)
		s.RunUntil(s.Now() + time.Microsecond)
	}
	// Grow the run to its high-water size: far's dead buckets pile up
	// until they outnumber the live entries and compaction sheds them.
	highWater := 0
	for i := 0; i < 2000; i++ {
		round()
		highWater = max(highWater, len(s.run))
	}
	if highWater < 2*256 {
		t.Fatalf("the run peaked at %d buckets, want at least %d", highWater, 2*256)
	}
	// The tables must not grow past their high-water either: a rare
	// regrowth would vanish in AllocsPerRun's rounded-down average.
	caps := func() [3]int { return [3]int{cap(s.run), cap(s.calls), cap(s.next)} }
	grown := caps()
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("Schedule, Reset and Step on a deep run allocate %v per round, want 0", n)
	}
	if c := caps(); c != grown {
		t.Errorf("run, calls and next capacities grew %v → %v past their high-water", grown, c)
	}
	if depth != burstDepth || s.Pending() != 257 || s.run[0].when <= time.Hour+255 {
		t.Fatalf("burst reached depth %d with %d pending and %v latest, want %d with 257 and far's arm",
			depth, s.Pending(), s.run[0].when, burstDepth)
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

// BenchmarkFarArm is the run's worst case: one far-future timer re-armed
// past 500 queued near-term instants — about the longest run fault_mix
// holds — so every arm walks the whole run and goes in at its latest
// end, and the dead arms it leaves pile up there until compaction.
func BenchmarkFarArm(b *testing.B) {
	s := New(1)
	nop := func() {}
	for i := 0; i < 500; i++ {
		s.Schedule(time.Duration(i+1)*time.Millisecond, nop)
	}
	far := s.After(time.Hour, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		far.Reset(time.Hour + time.Duration(i))
	}
	b.StopTimer()
	b.ReportMetric(float64(len(s.run)), "instants")
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
			instants += len(s.run)
			samples++
		}
	}
	b.ReportMetric(float64(entries)/float64(samples), "queued")
	b.ReportMetric(float64(instants)/float64(samples), "instants")
}
