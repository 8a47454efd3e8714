// Package des is a deterministic discrete-event simulator. It provides
// the virtual clock under all experiments in this repository: protocol
// layers run as event handlers scheduled on a single priority queue, so a
// whole 10-member group execution is sequential, reproducible from a
// seed, and orders of magnitude faster than wall-clock execution.
//
// The paper's evaluation ran on ten SparcStation-20s on a 10 Mbit
// Ethernet; we substitute this simulator (see DESIGN.md §2) because the
// phenomena behind Figure 2 — queueing at the sequencer, waiting for the
// rotating token — are latency/throughput effects that a discrete-event
// model reproduces faithfully.
package des

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Sim is a discrete-event simulator instance. It is not safe for
// concurrent use: all handlers run on the caller's goroutine, one at a
// time, which is precisely what makes executions deterministic.
//
// The queue orders instants, not events. Every queued entry waits in the
// bucket of its timestamp: a FIFO of the entries that share one instant,
// linked through next in call order. There is exactly one bucket per
// queued instant, and the buckets form one run sorted latest-first, so
// the earliest instant is the last element and a pop is a slice shrink.
type Sim struct {
	now time.Duration
	// run holds one bucket per queued instant, strictly descending by
	// when. Its elements hold no pointer, so shifting them moves plain
	// words with no GC write barrier.
	run []instant
	// calls holds each queued entry's callback and handle, indexed by the
	// entry's slot. next[slot] is the following entry of the slot's
	// bucket (-1 at the tail), or, for a free slot, the next free one
	// after freeSlot (-1 when none is free). A slot is zeroed when it is
	// freed, so calls keeps nothing reachable that the queue does not.
	// Scheduling allocates nothing once these tables have grown to the
	// in-flight high-water mark.
	calls    []call
	next     []int32
	freeSlot int32
	// queued counts entries in the buckets, live and dead.
	queued int
	rng    *rand.Rand
	// executed counts handler invocations, for run-away detection and
	// statistics.
	executed uint64
	// stopped counts dead entries still sitting in the queue: the arm of
	// a Stop()ed timer, or the superseded arm of a Reset() one. When
	// they outnumber the live entries the buckets are compacted, so
	// stop-heavy workloads (fifo resend, heartbeat, and recovery timers
	// that are almost always cancelled or re-armed before firing) cannot
	// bloat the queue with dead entries — or keep more than that many
	// cancelled callbacks reachable.
	stopped int
}

// instant is the bucket of one queued timestamp: the slots of its first
// and last queued entries, head and tail (both -1 once it has drained).
// An entry joins its instant's bucket at the tail, at the call, so a
// bucket is in call order; buckets are unique per when, so the queue
// fires in (when, call order), a total order that is a function of the
// call sequence alone.
//
// Only the root — the last bucket of the run — drains: a drained root
// stays in place until the next Step, so entries scheduled for the
// current time while it runs join it.
type instant struct {
	when       time.Duration
	head, tail int32
}

// call is what a queued entry runs.
type call struct {
	fn func()
	// t is the handle the entry was armed through, nil for Schedule. The
	// entry is live only while t still points back at it (t.pending and
	// t.slot == the entry's slot); Stop and Reset kill an entry by
	// breaking that link, not by searching the queue. A queued entry's
	// slot is not reused until the entry leaves the queue, so a new arm
	// never shares a slot with a dead one.
	t *Timer
}

// live reports whether the entry in slot should still fire.
func (s *Sim) live(slot int32) bool {
	t := s.calls[slot].t
	return t == nil || (t.pending && t.slot == slot)
}

// enqueue stores c in a free slot and appends it to when's bucket. The
// walk starts at the run's earliest end and stops at the first bucket
// not earlier than when: that is when's bucket, or else the place where
// a new one goes. It returns the slot.
func (s *Sim) enqueue(when time.Duration, c call) int32 {
	var slot int32
	if slot = s.freeSlot; slot >= 0 {
		s.freeSlot = s.next[slot]
		s.calls[slot] = c
	} else {
		slot = int32(len(s.calls))
		s.calls = append(s.calls, c)
		s.next = append(s.next, 0)
	}
	s.next[slot] = -1
	s.queued++
	q := s.run
	i := len(q)
	for i > 0 && q[i-1].when < when {
		i--
	}
	if i > 0 && q[i-1].when == when {
		b := &q[i-1]
		if b.tail < 0 {
			b.head = slot // the drained root
		} else {
			s.next[b.tail] = slot
		}
		b.tail = slot
		return slot
	}
	q = append(q, instant{})
	copy(q[i+1:], q[i:])
	q[i] = instant{when: when, head: slot, tail: slot}
	s.run = q
	return slot
}

// release takes the call out of slot, zeroes the slot and frees it.
func (s *Sim) release(slot int32) call {
	c := s.calls[slot]
	s.calls[slot] = call{}
	s.next[slot] = s.freeSlot
	s.freeSlot = slot
	s.queued--
	return c
}

// advance unlinks slot, the root's first entry, from the root.
func (s *Sim) advance(slot int32) {
	root := &s.run[len(s.run)-1]
	if root.head = s.next[slot]; root.head < 0 {
		root.tail = -1
	}
}

// New returns a simulator whose random stream is derived from seed.
// Equal seeds give byte-identical executions.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), freeSlot: -1}
}

// Now returns the current virtual time (zero at construction).
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded random stream. Protocol layers and
// network models must draw randomness only from here to stay
// deterministic.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events executed so far.
func (s *Sim) Executed() uint64 { return s.executed }

// Timer is a handle to a scheduled event; it can be stopped before it
// fires, and re-armed — before or after — without allocating.
type Timer struct {
	sim  *Sim
	fn   func()
	when time.Duration
	// slot is the call slot of the current arm's queue entry.
	slot    int32
	pending bool
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// call prevented the timer from firing. The queue entry is reclaimed
// lazily: either when it reaches the front of the queue, or by a bulk
// compaction once dead entries outnumber live ones — which also bounds
// how long the queue keeps a cancelled callback reachable.
func (t *Timer) Stop() bool {
	if t == nil || !t.pending {
		return false
	}
	t.pending = false
	t.sim.stopped++
	t.sim.compact()
	return true
}

// Reset re-arms the timer to run its callback d from now, whether it is
// pending, has fired, or was stopped. It is exactly Stop followed by
// After with the same callback — one new entry, appended to its bucket at
// the call — minus the allocation, so swapping one for the other leaves
// the execution order untouched.
func (t *Timer) Reset(d time.Duration) {
	s := t.sim
	if d < 0 {
		d = 0
	}
	superseded := t.pending
	s.arm(t, s.now+d)
	if superseded {
		s.stopped++
		s.compact()
	}
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return t != nil && t.pending }

// When returns the virtual time at which the timer fires (or fired).
func (t *Timer) When() time.Duration { return t.when }

// Schedule runs fn at absolute virtual time when, with At's clamping and
// tie-break rules but without a handle: the event cannot be stopped, and
// scheduling it allocates nothing. It is the call for events nobody
// cancels (the network model's frame and delivery events).
func (s *Sim) Schedule(when time.Duration, fn func()) {
	if fn == nil {
		panic("des: nil event function")
	}
	if when < s.now {
		when = s.now
	}
	s.enqueue(when, call{fn: fn})
}

// At schedules fn to run at absolute virtual time when. Scheduling in
// the past (or present) runs the event at the current time, after all
// events already queued for that time. Events at equal times fire in
// scheduling order (deterministic FIFO tie-break). The returned handle is
// the only allocation; callers that never stop or re-arm the event should
// use Schedule.
func (s *Sim) At(when time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("des: nil event function")
	}
	t := &Timer{sim: s, fn: fn}
	s.arm(t, when)
	return t
}

// arm queues a fresh entry for t; any entry of an earlier arm goes stale
// because t.slot no longer matches it.
func (s *Sim) arm(t *Timer, when time.Duration) {
	if when < s.now {
		when = s.now
	}
	t.when, t.pending = when, true
	t.slot = s.enqueue(when, call{fn: t.fn, t: t})
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// compact drops the dead entries from every bucket once they make up
// more than half the queue (and the queue is big enough to matter), and
// the buckets left empty from the run. It filters the run in place, so
// the buckets keep their order, and each keeps its survivors in theirs:
// execution order, and thus determinism, is unaffected.
func (s *Sim) compact() {
	if s.queued < 64 || s.stopped*2 <= s.queued {
		return
	}
	kept := s.run[:0]
	for _, in := range s.run {
		head, last := int32(-1), int32(-1)
		for slot := in.head; slot >= 0; {
			following := s.next[slot]
			if !s.live(slot) {
				s.release(slot)
			} else {
				if last < 0 {
					head = slot
				} else {
					s.next[last] = slot
				}
				last = slot
			}
			slot = following
		}
		if last < 0 {
			continue
		}
		s.next[last] = -1
		in.head, in.tail = head, last
		kept = append(kept, in)
	}
	s.run = kept
	s.stopped = 0
}

// yieldEvery is how many events Step runs between yields of the
// processor. A simulation is one goroutine that never blocks, so where it
// has a single P to itself the collector's background mark worker runs
// only when the runtime preempts that goroutine, every 10 ms. A cycle
// whose last work is waiting for the worker then stalls while the
// simulation allocates on: once most garbage was byte buffers (little to
// scan, so few mark assists) the heap overshot its goal two- to
// threefold about once a second on the paper experiment. A yield costs
// well under a nanosecond per event at this spacing and lets the cycle
// finish within ~0.3 ms; with idle Ps around it changes nothing.
const yieldEvery = 1024

// Step executes the next pending event, if any, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (s *Sim) Step() bool {
	slot, ok := s.front()
	if !ok {
		return false
	}
	s.now = s.run[len(s.run)-1].when
	s.advance(slot)
	c := s.release(slot)
	if c.t != nil {
		c.t.pending = false
	}
	s.executed++
	if s.executed%yieldEvery == 0 {
		runtime.Gosched()
	}
	c.fn()
	return true
}

// Run executes events until the queue is empty. maxEvents bounds the
// number of handler invocations as a run-away guard; it returns an error
// if the bound is hit (0 means no bound).
func (s *Sim) Run(maxEvents uint64) error {
	start := s.executed
	for s.Step() {
		if maxEvents > 0 && s.executed-start >= maxEvents {
			return fmt.Errorf("des: exceeded %d events at t=%v", maxEvents, s.now)
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Sim) RunUntil(deadline time.Duration) { _ = s.RunUntilBounded(deadline, 0) }

// RunUntilBounded is RunUntil with Run's run-away guard: it stops with
// an error, the clock where the last event left it, once maxEvents
// handlers have run (0 means no bound).
func (s *Sim) RunUntilBounded(deadline time.Duration, maxEvents uint64) error {
	start := s.executed
	for {
		if _, ok := s.front(); !ok || s.run[len(s.run)-1].when > deadline {
			break
		}
		if maxEvents > 0 && s.executed-start >= maxEvents {
			return fmt.Errorf("des: exceeded %d events at t=%v", maxEvents, s.now)
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}

// Pending returns the number of queued live events.
func (s *Sim) Pending() int {
	return s.queued - s.stopped
}

// front returns the slot of the earliest live entry — the root's first
// — or false if no live entry is queued. On the way it drops drained
// buckets and frees the dead entries it passes.
func (s *Sim) front() (int32, bool) {
	for n := len(s.run); n > 0; n = len(s.run) {
		switch slot := s.run[n-1].head; {
		case slot < 0:
			s.run = s.run[:n-1]
		case s.live(slot):
			return slot, true
		default:
			s.advance(slot)
			s.release(slot)
			s.stopped--
		}
	}
	return 0, false
}
