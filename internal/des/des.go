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
type Sim struct {
	now time.Duration
	// queue is a binary min-heap of entries ordered by (when, id).
	// Entries hold no pointer — an entry's callback and handle sit in
	// calls[slot] — so sifting moves plain words with no GC write
	// barrier. Scheduling boxes nothing and allocates nothing once queue,
	// calls and free have grown to the in-flight high-water mark.
	queue []entry
	// calls holds each queued entry's callback and handle, indexed by the
	// entry's slot; free lists the unused slots. A slot is zeroed when it
	// is freed, so calls keeps nothing reachable that the queue does not.
	calls  []call
	free   []int
	nextID uint64
	rng    *rand.Rand
	// executed counts handler invocations, for run-away detection and
	// statistics.
	executed uint64
	// stopped counts dead entries still sitting in the queue: the arm of
	// a Stop()ed timer, or the superseded arm of a Reset() one. When
	// they outnumber the live entries the heap is compacted, so
	// stop-heavy workloads (fifo resend, heartbeat, and recovery timers
	// that are almost always cancelled or re-armed before firing) cannot
	// bloat the queue with dead entries — or keep more than that many
	// cancelled callbacks reachable.
	stopped int
}

// entry is one queue entry. id is the scheduling sequence number: ids are
// handed out in call order, one per Schedule/At/After/Reset, and break
// ties between equal timestamps, so (when, id) is a total order and the
// execution order is a function of the call sequence alone. slot indexes
// the entry's call in Sim.calls.
type entry struct {
	when time.Duration
	id   uint64
	slot int
}

// call is what a queued entry runs.
type call struct {
	fn func()
	// t is the handle the entry was armed through, nil for Schedule. The
	// entry is live only while t still points back at it (t.pending and
	// t.id == the entry's id); Stop and Reset kill an entry by breaking
	// that link, not by searching the heap.
	t *Timer
}

// live reports whether e should still fire.
func (s *Sim) live(e *entry) bool {
	t := s.calls[e.slot].t
	return t == nil || (t.pending && t.id == e.id)
}

// enqueue stores c in a free slot and pushes its entry.
func (s *Sim) enqueue(when time.Duration, id uint64, c call) {
	var slot int
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.calls[slot] = c
	} else {
		slot = len(s.calls)
		s.calls = append(s.calls, c)
	}
	s.push(entry{when: when, id: id, slot: slot})
}

// release takes the call out of slot, zeroes the slot and frees it.
func (s *Sim) release(slot int) call {
	c := s.calls[slot]
	s.calls[slot] = call{}
	s.free = append(s.free, slot)
	return c
}

// New returns a simulator whose random stream is derived from seed.
// Equal seeds give byte-identical executions.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
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
	// id is the sequence number of the current arm's queue entry.
	id      uint64
	pending bool
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// call prevented the timer from firing. The queue entry is reclaimed
// lazily: either when it surfaces at the top of the heap, or by a bulk
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
// After with the same callback — one new event id, taken at the call —
// minus the allocation, so swapping one for the other leaves the
// execution order untouched.
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
	s.enqueue(when, s.nextID, call{fn: fn})
	s.nextID++
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

// arm queues a fresh entry for t under the next event id; any entry of
// an earlier arm goes stale because t.id no longer matches it.
func (s *Sim) arm(t *Timer, when time.Duration) {
	if when < s.now {
		when = s.now
	}
	t.when, t.id, t.pending = when, s.nextID, true
	s.nextID++
	s.enqueue(when, t.id, call{fn: t.fn, t: t})
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// compact rebuilds the heap without its dead entries once they make up
// more than half the queue (and the queue is big enough to matter).
// The rebuild keeps the (when, id) total order, so execution order — and
// thus determinism — is unaffected.
func (s *Sim) compact() {
	if len(s.queue) < 64 || s.stopped*2 <= len(s.queue) {
		return
	}
	live := s.queue[:0]
	for i := range s.queue {
		if s.live(&s.queue[i]) {
			live = append(live, s.queue[i])
		} else {
			s.release(s.queue[i].slot)
		}
	}
	s.queue = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		s.siftDown(i, live[i])
	}
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
	for len(s.queue) > 0 {
		e := s.pop()
		c := s.release(e.slot)
		if t := c.t; t != nil {
			if !t.pending || t.id != e.id {
				s.stopped--
				continue
			}
			t.pending = false
		}
		s.now = e.when
		s.executed++
		if s.executed%yieldEvery == 0 {
			runtime.Gosched()
		}
		c.fn()
		return true
	}
	return false
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
func (s *Sim) RunUntil(deadline time.Duration) {
	for {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending returns the number of queued live events.
func (s *Sim) Pending() int {
	return len(s.queue) - s.stopped
}

// peek returns the timestamp of the next live event.
func (s *Sim) peek() (time.Duration, bool) {
	for len(s.queue) > 0 {
		if e := &s.queue[0]; s.live(e) {
			return e.when, true
		}
		s.release(s.pop().slot)
		s.stopped--
	}
	return 0, false
}

// less orders entries by (when, id) so simultaneous events fire in
// scheduling order.
func less(a, b *entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.id < b.id
}

// push adds e to the heap: the hole opened at the end climbs until e's
// parent sorts before it, so each level costs one move instead of a swap.
func (s *Sim) push(e entry) {
	s.queue = append(s.queue, entry{})
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&e, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// pop removes and returns the earliest entry; the caller releases its
// slot.
func (s *Sim) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// siftDown places e at or below index i: the hole sinks past every child
// that sorts before e.
func (s *Sim) siftDown(i int, e entry) {
	q := s.queue
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(&q[r], &q[child]) {
			child = r
		}
		if !less(&q[child], &e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
}
