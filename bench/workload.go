package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// trafficSpec is one traffic workload. The virtual durations are frozen:
// a repeat is always the same seeded virtual workload, so virtual-time
// metrics are exact per seed and host metrics are "time to execute a
// fixed input".
type trafficSpec struct {
	name string
	// hardened selects the profile (see switchConfig) and with it the
	// network: everything-on over the fast NIC, or paper-exact over the
	// paper's 10 Mbit Ethernet.
	hardened bool
	slots    [2]string // protocol per slot: "seq" or "tok"
	members  int
	senders  int
	rate     float64 // messages per second per sender
	burst    int     // casts issued back-to-back per sender tick
	msgBytes int
	// virtual is the casting window, drain the time in-flight messages
	// get to land afterwards.
	virtual, drain time.Duration
	// switchEvery is how often member 0 requests a switch (0: never).
	switchEvery time.Duration
}

var trafficSpecs = []trafficSpec{
	{name: "seq_steady", hardened: true, slots: [2]string{"seq", "seq"},
		members: 6, senders: 3, rate: 600, burst: 8, msgBytes: 256,
		virtual: 120 * time.Second, drain: 2 * time.Second},
	{name: "tok_steady", hardened: true, slots: [2]string{"tok", "tok"},
		members: 6, senders: 3, rate: 600, burst: 8, msgBytes: 256,
		virtual: 120 * time.Second, drain: 2 * time.Second},
	{name: "paper_switch", slots: [2]string{"seq", "tok"},
		members: 10, senders: 5, rate: 50, burst: 1, msgBytes: 2240,
		virtual: 180 * time.Second, drain: 5 * time.Second,
		switchEvery: 500 * time.Millisecond},
}

// scaled shortens the workload (tests run at 1/100).
func (s trafficSpec) scaled(div int) trafficSpec {
	s.virtual /= time.Duration(div)
	return s
}

// castTick is one sender tick of the open-loop schedule: burst casts
// from sender, due at the virtual instant at.
type castTick struct {
	at     time.Duration
	sender int
}

// schedule expands the seed into the cast schedule: per sender a
// phase-shifted tick train at the configured mean rate with ±10 %
// seeded jitter. The generator is open-loop — ticks are due at fixed
// virtual instants regardless of what was delivered — and in virtual
// time it is never late, so latency from the due time is latency from
// the cast.
func (s trafficSpec) schedule(seed int64) []castTick {
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(s.burst) * float64(time.Second) / s.rate)
	var ticks []castTick
	for p := 0; p < s.senders; p++ {
		at := time.Duration(p) * interval / time.Duration(s.senders)
		for at < s.virtual {
			ticks = append(ticks, castTick{at: at, sender: p})
			at += interval - interval/10 + time.Duration(rng.Int63n(int64(interval/5)))
		}
	}
	sort.SliceStable(ticks, func(i, j int) bool { return ticks[i].at < ticks[j].at })
	return ticks
}

// epochMark says that from its pos-th delivery on, a member delivered in
// the given epoch.
type epochMark struct {
	pos   int
	epoch uint64
}

// recorder is the application: what was cast, and the group-wide log of
// what was delivered — which message, at which member, when, in which
// epoch. The simulation runs in virtual-time order, so the log is sorted
// by time. Its buffers are sized once and reused by every repeat, so the
// timed region allocates nothing here and the benchmark's own memory is
// a constant under the program's.
type recorder struct {
	due       []time.Duration // per message: the cast's due time
	castEpoch []uint64        // per message: the epoch it was sent in
	// The delivery log, one entry per app-level delivery.
	msg    []uint32
	member []uint8
	at     []time.Duration
	// Per member: deliveries so far, and where its epoch changed.
	count []int
	marks [][]epochMark
	bad   int // undecodable deliveries
	// scratch is sorted in place by latencies and hiccups.
	scratch []time.Duration
}

func newRecorder(members, casts int) *recorder {
	n := members * casts
	return &recorder{
		due:       offHeap[time.Duration](casts),
		castEpoch: offHeap[uint64](casts),
		msg:       offHeap[uint32](n),
		member:    offHeap[uint8](n),
		at:        offHeap[time.Duration](n),
		count:     make([]int, members),
		marks:     make([][]epochMark, members),
		scratch:   offHeap[time.Duration](n),
	}
}

// offHeap returns an empty slice of capacity n whose backing array is
// mapped outside the Go heap (and never unmapped: a run is a process).
// The log is tens of megabytes; on the heap it would be most of the live
// heap, so the collector would run a tenth as often as it does for the
// program alone and peak memory would be twice the log. Off the heap,
// the collector paces itself on the program's own live data, as it would
// in a deployment, and peak_rss_mb is the program's heap plus a constant.
func offHeap[T any](n int) []T {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("bench: map %d bytes: %v", size, err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0]
}

func (r *recorder) reset() {
	r.due, r.castEpoch, r.bad = r.due[:0], r.castEpoch[:0], 0
	r.msg, r.member, r.at = r.msg[:0], r.member[:0], r.at[:0]
	for m := range r.count {
		r.count[m], r.marks[m] = 0, r.marks[m][:0]
	}
}

// repeat is the outcome of executing the workload once.
type repeat struct {
	measurement
	steps     uint64 // DES events executed
	casts     int
	records   []switchRecord // switches completed, at the initiator
	requested int            // switches requested
	counts    stackCounts
}

// runTraffic builds a fresh cluster and executes ticks on it until the
// virtual instant until, recording into rec. With tr set the run is
// traced; the simulation itself is identical.
func runTraffic(spec trafficSpec, seed int64, ticks []castTick, rec *recorder, tr *tracer, until time.Duration) (repeat, error) {
	rec.reset()
	var c *cluster
	c, err := newCluster(spec, seed, tr, func(m int) func([]byte) {
		last := uint64(0)
		return func(payload []byte) {
			g, ok := decodeMsg(payload)
			if !ok {
				rec.bad++
				return
			}
			if e := c.epoch(m); e != last {
				last = e
				rec.marks[m] = append(rec.marks[m], epochMark{pos: rec.count[m], epoch: e})
			}
			rec.count[m]++
			rec.msg = append(rec.msg, g)
			rec.member = append(rec.member, uint8(m))
			rec.at = append(rec.at, c.now())
		}
	})
	if err != nil {
		return repeat{}, fmt.Errorf("%s: build cluster: %w", spec.name, err)
	}

	// The generator: one chained event walks the schedule, so the DES
	// queue holds one generator entry however long the run.
	body := make([]byte, spec.msgBytes)
	next := 0
	var fire func()
	fire = func() {
		for next < len(ticks) && ticks[next].at <= c.now() {
			t := ticks[next]
			next++
			for b := 0; b < spec.burst; b++ {
				g := uint32(len(rec.due))
				rec.due = append(rec.due, t.at)
				rec.castEpoch = append(rec.castEpoch, c.cast(t.sender, g, body))
			}
		}
		if next < len(ticks) {
			c.after(ticks[next].at-c.now(), fire)
		}
	}
	if len(ticks) > 0 {
		c.after(ticks[0].at, fire)
	}
	var out repeat
	if spec.switchEvery > 0 {
		var request func()
		request = func() {
			c.requestSwitch(0)
			out.requested++
			if c.now()+spec.switchEvery < spec.virtual {
				c.after(spec.switchEvery, request)
			}
		}
		c.after(spec.switchEvery, request)
	}
	// The token and the heartbeats never let the queue empty; a sentinel
	// event ends the run.
	stop := false
	c.after(until, func() { stop = true })

	out.measurement = measure(func() {
		if tr != nil {
			tr.runLoop(c.step, c.pending, &stop)
			out.steps = tr.steps
			return
		}
		for !stop && c.step() {
			out.steps++
		}
	})
	c.stop()
	out.casts = len(rec.due)
	out.records = c.switchRecords(0)
	out.counts = c.counts()
	return out, nil
}

// digest folds everything a repeat observed in virtual time into one
// word: two repeats of one seed must agree on it bit for bit.
func (r *recorder) digest(rp repeat) uint64 {
	h := digestSeed
	h = mix(h, rp.steps)
	h = mix(h, uint64(rp.casts))
	for i, g := range r.msg {
		h = mix(mix(mix(h, uint64(g)), uint64(r.member[i])), uint64(r.at[i]))
	}
	for _, marks := range r.marks {
		for _, k := range marks {
			h = mix(mix(h, uint64(k.pos)), k.epoch)
		}
	}
	for _, s := range rp.records {
		h = mix(mix(h, uint64(s.started)), uint64(s.finished))
	}
	return h
}

// latencies returns every delivery's latency from its cast's due time,
// sorted ascending. keep selects deliveries by the epoch they were cast
// in (nil keeps all). The result lives in the recorder's scratch buffer:
// it is valid until the next latencies or hiccups call.
func (r *recorder) latencies(keep func(epoch uint64) bool) []time.Duration {
	out := r.scratch[:0]
	for i, g := range r.msg {
		if int(g) < len(r.due) && (keep == nil || keep(r.castEpoch[g])) {
			out = append(out, r.at[i]-r.due[g])
		}
	}
	slices.Sort(out)
	return out
}

// hiccups returns, per completed switch, E5's perceived hiccup: the
// worst group-wide gap between consecutive deliveries that begins in
// [Started, Finished+50ms], less the median gap of the whole run.
func (r *recorder) hiccups(records []switchRecord) []time.Duration {
	ts := r.at
	if len(ts) < 2 {
		return nil
	}
	gaps := r.scratch[:0]
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i]-ts[i-1])
	}
	slices.Sort(gaps)
	steady := quantile(gaps, 0.5)
	out := make([]time.Duration, 0, len(records))
	for _, s := range records {
		end := s.finished + 50*time.Millisecond
		worst := time.Duration(0)
		for i := sort.Search(len(ts), func(i int) bool { return ts[i] >= s.started }); i+1 < len(ts) && ts[i] <= end; i++ {
			if gap := ts[i+1] - ts[i]; gap > worst {
				worst = gap
			}
		}
		if worst -= steady; worst < 0 {
			worst = 0
		}
		out = append(out, worst)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
