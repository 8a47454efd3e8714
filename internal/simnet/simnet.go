// Package simnet models the paper's experimental network — a group of
// workstations on a shared 10 Mbit Ethernet — on top of the discrete
// event simulator. It is the substrate substitution documented in
// DESIGN.md §2: per-message transmission time on a shared medium,
// per-hop propagation delay, per-node CPU service time, and fault
// injection (loss, duplication, jitter/reordering, replay) so that
// protocol correctness can be exercised under adversity.
//
// The model is intentionally simple but captures the two effects that
// produce Figure 2 of the paper:
//
//   - a *shared medium*: transmissions serialize on the wire, so total
//     offered load degrades everybody;
//   - *per-node CPU queues*: a centralized sequencer saturates as the
//     number of active senders grows, while a rotating token spreads
//     work evenly.
//
// Every frame is a short run of simulator events: the sender's CPU is
// done, the transmission is done, the frame arrives, the receiver's CPU is
// done. Deliveries that share an instant share an event: a multicast's
// arrivals at the other members form one arrival chain, and the receive
// completions of members whose CPU was idle form one completion chain.
// Running such a chain receiver by receiver, in the order the separate
// events would have fired, is indistinguishable from firing them one by
// one, so a chain moves no delivery in time or order (DESIGN.md §2.2).
//
// Each transmission's bytes are one frame, taken from the network's free
// list and given back when the frame's last delivery has returned
// (wireFrame): a handler borrows what it is handed for the call.
package simnet

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
)

// Config describes the simulated network.
type Config struct {
	// Nodes is the number of attached processes (group size).
	Nodes int
	// PropDelay is the one-way propagation delay of the medium.
	PropDelay time.Duration
	// BitsPerSecond is the medium bandwidth; transmissions occupy the
	// shared wire for size*8/BitsPerSecond. Zero disables the
	// transmission-time/shared-medium model entirely.
	BitsPerSecond float64
	// FrameOverhead is added to every packet's size on the wire
	// (headers, preamble).
	FrameOverhead int
	// RecvCPU is the per-packet processing time charged to the
	// receiving node's CPU queue before its handler runs.
	RecvCPU time.Duration
	// SendCPU is the per-packet processing time charged to the sending
	// node's CPU queue before the packet reaches the wire.
	SendCPU time.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("simnet: need at least one node, got %d", c.Nodes)
	}
	if c.PropDelay < 0 || c.RecvCPU < 0 || c.SendCPU < 0 {
		return fmt.Errorf("simnet: negative delay in config")
	}
	if c.BitsPerSecond < 0 || c.FrameOverhead < 0 {
		return fmt.Errorf("simnet: negative bandwidth or frame overhead")
	}
	return nil
}

// Ethernet10Mbit returns the calibrated configuration used for the
// paper-reproduction experiments: a 10 Mbit/s shared medium with early
// 1990s-workstation protocol-processing costs. The CPU costs are the
// knob that locates the Figure 2 crossover; see EXPERIMENTS.md.
func Ethernet10Mbit(nodes int) Config {
	return Config{
		Nodes:         nodes,
		PropDelay:     50 * time.Microsecond,
		BitsPerSecond: 10e6,
		FrameOverhead: 64,
		RecvCPU:       600 * time.Microsecond,
		SendCPU:       400 * time.Microsecond,
	}
}

// Handler receives packets addressed to a node. src is the sending node.
// payload is borrowed for the call: it is read-only, shared with the
// other receivers of the same transmission, and recycled into another
// frame once the call returns. A handler that keeps it, or any part of
// it, copies it into its own buffers (wire.Spares).
type Handler func(src ids.ProcID, payload []byte)

// Stats counts the traffic no event names. Faults are counted in the
// event stream: a recorder such as an obs.Metrics registry attached with
// SetRecorder sees every drop, corruption, injection and knob change.
type Stats struct {
	Unicasts   uint64
	Multicasts uint64
	Delivered  uint64
	Duplicated uint64
	WireBytes  uint64
}

// linkFault holds the per-directed-link fault overrides layered over
// the global knobs (the gray-failure model's asymmetric links).
type linkFault struct {
	drop, dup float64
	extra     time.Duration
}

// frame is one queued transmission.
type frame struct {
	src       ids.ProcID
	dst       ids.ProcID // unicast destination (ignored for multicast)
	multicast bool
	buf       *wireFrame
	tx        time.Duration
}

// txRecord carries one frame from Unicast/Multicast through the sender's
// CPU, its egress queue and the wire. Its two event callbacks are method
// values bound once, when the record is first created, and records are
// recycled through Network.txFree — so a frame in steady state costs the
// simulator no closure, no timer and no record. The network owns the
// record and the frame: f.buf is the snapshot taken at the send, nothing
// writes to it afterwards, and the record holds one reference to it
// until the fan-out is done.
type txRecord struct {
	n *Network
	f frame
	// enqueueFn is r.enqueue (send CPU done: join the egress queue);
	// doneFn is r.done (transmission complete: fan out, free the wire).
	enqueueFn, doneFn func()
}

// rxRecord carries one delivery — one frame at one receiver — from the
// fault pipeline to the handler, through the receiver's CPU queue. Bound
// and recycled like txRecord (Network.rxFree). It is released *before*
// the handler runs, so a handler that sends re-enters the network with
// the record already back on the free list. buf is the transmission's
// frame (or a prefix of it, or the private copy a corruption fault took):
// every other receiver of that transmission may be handed the same bytes.
// f is the reference to the frame buf views — nil for a private copy —
// and is dropped only once the handler has returned.
type rxRecord struct {
	n        *Network
	src, dst ids.ProcID
	buf      []byte
	f        *wireFrame
	// h is the handler resolved at arrival, kept for the CPU-queued leg.
	h Handler
	// next is the record after this one in its chain: the deliveries
	// that run, in order, in the same event.
	next *rxRecord
	// arriveFn is r.arrive (the chain reaches its nodes); handleFn is
	// r.handle (receive processing done: run the handlers).
	arriveFn, handleFn func()
}

// chain is an open run of same-instant delivery records: tail is the last
// record joined, and the head's callback is the one event scheduled at at.
type chain struct {
	at   time.Duration
	tail *rxRecord
}

// egressQueue is one node's FIFO of frames waiting for the medium: a
// head-indexed ring over a power-of-two array. Serving a frame clears its
// slot, so the array never keeps a served frame (or its payload)
// reachable, and a queue that drains and refills reuses its array
// instead of creeping along it and re-allocating.
type egressQueue struct {
	buf   []*txRecord
	head  int
	count int
}

func (q *egressQueue) push(r *txRecord) {
	if q.count == len(q.buf) {
		grown := make([]*txRecord, max(8, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = r
	q.count++
}

func (q *egressQueue) pop() *txRecord {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	return r
}

// Network is the simulated medium plus the per-node CPU model.
//
// Medium arbitration: each node has its own egress queue and the shared
// wire serves the queues round-robin, one frame at a time. This
// approximates CSMA fairness on a real Ethernet: a node with a deep
// backlog (a saturated sequencer) delays *its own* frames unboundedly,
// but other hosts still get the medium within roughly one frame time
// per contender — which is what keeps the switching protocol's control
// token live even when the protocol being switched away from is
// overloaded (§7).
type Network struct {
	sim      *des.Sim
	cfg      Config
	handlers []Handler
	// egress[i] is node i's queued frames; the wire serves queues
	// round-robin starting after lastServed.
	egress     []egressQueue
	wireBusy   bool
	lastServed int
	// cpuFree[i] is when node i's CPU becomes idle.
	cpuFree []time.Duration
	// The fault tables below are indexed by node, or by link(from, to).
	// crashed nodes neither send nor receive (crash-stop injection).
	crashed []bool
	// blocked suppresses delivery on a directed link (partition
	// injection).
	blocked []bool
	// jitter, drop, dup, corrupt and truncate are the per-receiver fault
	// knobs (SetFaults, SetCorruption); all zero draws nothing.
	jitter                       time.Duration
	drop, dup, corrupt, truncate float64
	// linkFaults holds per-directed-link overrides layered over the
	// global fault knobs (gray asymmetric links); an unset link is the
	// zero value and draws nothing.
	linkFaults []linkFault
	// slowFactor stretches a node's CPU charges (gray slow node); 0 or 1
	// means full speed.
	slowFactor []int
	// flapEpoch invalidates a link's scheduled flap toggles when a
	// newer SetFlapping call supersedes them.
	flapEpoch []int
	stats     Stats
	rec       obs.Recorder
	// captured holds wire frames recorded for later replay injection
	// (SetReplayCapture); capMax bounds the buffer.
	captured []capturedFrame
	capMax   int
	// fanning is set while completeFrame fans a frame out or an arrival
	// chain charges receive CPU; only then may a delivery join one of the
	// chains opened since (open) instead of taking an event of its own.
	fanning bool
	open    []chain
	// txFree and rxFree are the free lists of event records. They grow to
	// the in-flight high-water mark and hold no payloads: a record is
	// cleared when it is released.
	txFree []*txRecord
	rxFree []*rxRecord
	// frames is the free list of frame buffers (wireFrame).
	frames framePool
}

// capturedFrame is one recorded wire delivery, replayable verbatim. It
// holds a reference to its frame, so the bytes stay the sender's.
type capturedFrame struct {
	src, dst ids.ProcID
	f        *wireFrame
}

// New creates a network over the given simulator.
func New(sim *des.Sim, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	links := cfg.Nodes * cfg.Nodes
	return &Network{
		sim:        sim,
		cfg:        cfg,
		handlers:   make([]Handler, cfg.Nodes),
		egress:     make([]egressQueue, cfg.Nodes),
		cpuFree:    make([]time.Duration, cfg.Nodes),
		crashed:    make([]bool, cfg.Nodes),
		blocked:    make([]bool, links),
		linkFaults: make([]linkFault, links),
		slowFactor: make([]int, cfg.Nodes),
		flapEpoch:  make([]int, links),
		rec:        obs.Nop,
	}, nil
}

// SetRecorder installs an event recorder for fault injections and
// per-packet drops/delays. Passing nil restores the no-op default.
func (n *Network) SetRecorder(r obs.Recorder) { n.rec = obs.OrNop(r) }

// Crash fails node p crash-stop: everything it sends from now on is
// discarded, and so is every frame it sent that has not reached the wire
// yet — still in its send CPU or queued on its egress. A frame already on
// the wire finishes its transmission and is dropped at every receiver.
// Nothing arrives at p from now on; a frame that arrived before the crash
// and waits on p's CPU is still handed to p's handler. There is no
// recovery in this model.
func (n *Network) Crash(p ids.ProcID) {
	if !n.valid(p) || n.crashed[p] {
		return
	}
	n.crashed[p] = true
	for q := &n.egress[p]; q.count > 0; {
		r := q.pop()
		n.unref(r.f.buf)
		r.release()
	}
	n.egress[p] = egressQueue{}
	n.emit(obs.Crash(n.sim.Now(), p))
}

// Crashed reports whether p has been crash-stopped.
func (n *Network) Crashed(p ids.ProcID) bool { return n.valid(p) && n.crashed[p] }

// Bind installs the packet handler for node p. It returns an error for
// an unknown node; rebinding replaces the handler.
func (n *Network) Bind(p ids.ProcID, h Handler) error {
	if !n.valid(p) {
		return fmt.Errorf("simnet: bind to unknown node %v", p)
	}
	n.handlers[p] = h
	return nil
}

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

// emit records e. Every event the network emits goes through here.
func (n *Network) emit(e obs.Event) { n.rec.Record(e) }

// Nodes returns the group size.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// link indexes the per-link tables for the directed link from→to.
func (n *Network) link(from, to ids.ProcID) int {
	return int(from)*n.cfg.Nodes + int(to)
}

// Block suppresses packets from src to dst (partition injection). A link
// to or from an unknown node is ignored.
func (n *Network) Block(src, dst ids.ProcID) {
	if !n.valid(src) || !n.valid(dst) {
		return
	}
	n.blocked[n.link(src, dst)] = true
}

// Unblock re-enables packets from src to dst.
func (n *Network) Unblock(src, dst ids.ProcID) {
	if !n.valid(src) || !n.valid(dst) {
		return
	}
	n.blocked[n.link(src, dst)] = false
}

// Partition splits the group: every pair crossing the cut between side a
// and side b is blocked in both directions. Nodes named on neither side
// keep talking to everyone. Partition composes with earlier Block calls;
// Heal removes all of them.
func (n *Network) Partition(a, b []ids.ProcID) {
	for _, p := range a {
		for _, q := range b {
			n.Block(p, q)
			n.Block(q, p)
		}
		n.emit(obs.Partition(n.sim.Now(), p, len(b)))
	}
}

// Heal removes every pairwise block, ending all partitions at once.
func (n *Network) Heal() {
	clear(n.blocked)
	n.emit(obs.Heal(n.sim.Now()))
}

// checkProb rejects a fault probability outside [0,1).
func checkProb(what string, p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("simnet: %s probability %v out of [0,1)", what, p)
	}
	return nil
}

// SetFaults sets the per-receiver fault knobs: the probability that a
// packet is lost, the probability that it is delivered twice, and a
// uniform [0, jitter) extra delay per receiver that lets packets from
// different transmissions reorder. A network starts with all three at
// zero; the chaos harness changes them at virtual times to inject
// bursts. It returns an error (changing nothing) for a probability
// outside [0,1) or a negative jitter.
func (n *Network) SetFaults(dropProb, dupProb float64, jitter time.Duration) error {
	if err := checkProb("drop", dropProb); err != nil {
		return err
	}
	if err := checkProb("dup", dupProb); err != nil {
		return err
	}
	if jitter < 0 {
		return fmt.Errorf("simnet: negative jitter %v", jitter)
	}
	n.drop, n.dup, n.jitter = dropProb, dupProb, jitter
	n.emit(obs.FaultSet(n.sim.Now(),
		int64(dropProb*1000), int64(dupProb*1000), jitter))
	return nil
}

// SetCorruption sets the per-receiver corruption knobs: the probability
// that a delivered packet has 1-3 of its bits flipped (bit rot, line
// noise) and the probability that it loses a random-length tail (a
// short datagram). A network starts with both at zero. It returns an
// error (changing nothing) for a probability outside [0,1).
func (n *Network) SetCorruption(corruptProb, truncateProb float64) error {
	if err := checkProb("corrupt", corruptProb); err != nil {
		return err
	}
	if err := checkProb("truncate", truncateProb); err != nil {
		return err
	}
	n.corrupt, n.truncate = corruptProb, truncateProb
	n.emit(obs.CorruptSet(n.sim.Now(),
		int64(corruptProb*1000), int64(truncateProb*1000)))
	return nil
}

// SetLinkFaults installs per-directed-link fault overrides for the
// link from→to, layered over the global SetFaults knobs: an extra drop
// probability, an extra duplication probability, and a fixed extra
// delay — the gray-failure model's asymmetric link. Passing all-zero
// knobs clears the override. A link draws its extra randomness after
// the global draws, and only for a probability that is non-zero. It
// returns an error (changing nothing) for values SetFaults would reject.
func (n *Network) SetLinkFaults(from, to ids.ProcID, drop, dup float64, extra time.Duration) error {
	if !n.valid(from) || !n.valid(to) {
		return fmt.Errorf("simnet: link fault %v -> %v out of range", from, to)
	}
	if err := checkProb("link drop", drop); err != nil {
		return err
	}
	if err := checkProb("link dup", dup); err != nil {
		return err
	}
	if extra < 0 {
		return fmt.Errorf("simnet: negative link extra delay %v", extra)
	}
	n.linkFaults[n.link(from, to)] = linkFault{drop: drop, dup: dup, extra: extra}
	n.emit(obs.LinkFaultSet(n.sim.Now(), from, to,
		int64(drop*1000), int64(dup*1000), extra))
	return nil
}

// SetSlowNode stretches node p's send and receive CPU charges by the
// given factor — the gray-failure model's slow node: p still works,
// just several times slower. A factor of 1 restores full speed. The
// stretch consumes no randomness. It returns an error (changing
// nothing) for a non-positive factor.
func (n *Network) SetSlowNode(p ids.ProcID, factor int) error {
	if !n.valid(p) {
		return fmt.Errorf("simnet: slow node %v out of range", p)
	}
	if factor < 1 {
		return fmt.Errorf("simnet: slow-node factor %d must be at least 1", factor)
	}
	n.slowFactor[p] = factor
	n.emit(obs.SlowNodeSet(n.sim.Now(), p, factor))
	return nil
}

// SetFlapping starts partitioning and healing the directed link
// from→to on a fixed period: the link blocks now, heals after period,
// blocks again after another period, and so on until the given virtual
// time, when it is left healed. The toggling is driven entirely by the
// schedule's seeded parameters and consumes no randomness. A period of
// zero cancels any active flap on the link (healing it); a newer call
// supersedes an older one. It returns an error (changing nothing) for
// a negative period or a horizon not in the future.
func (n *Network) SetFlapping(from, to ids.ProcID, period, until time.Duration) error {
	if !n.valid(from) || !n.valid(to) {
		return fmt.Errorf("simnet: flapping %v -> %v out of range", from, to)
	}
	if period < 0 {
		return fmt.Errorf("simnet: negative flap period %v", period)
	}
	if period > 0 && until <= n.sim.Now() {
		return fmt.Errorf("simnet: flap horizon %v not in the future", until)
	}
	l := n.link(from, to)
	n.flapEpoch[l]++
	epoch := n.flapEpoch[l]
	n.emit(obs.FlapSet(n.sim.Now(), from, to, period, until))
	if period == 0 {
		n.Unblock(from, to)
		return nil
	}
	blocked := false
	var toggle func()
	toggle = func() {
		if n.flapEpoch[l] != epoch {
			return // superseded by a newer SetFlapping call
		}
		if n.sim.Now() >= until {
			n.Unblock(from, to) // leave the link healed
			return
		}
		if blocked {
			n.Unblock(from, to)
		} else {
			n.Block(from, to)
		}
		blocked = !blocked
		n.sim.Schedule(n.sim.Now()+period, toggle)
	}
	toggle()
	return nil
}

// SetSenderSpike marks the start (mult > 1) or end (mult 1) of a
// flash-crowd sender spike in the event trace. The network
// cannot originate application traffic itself: the workload generator
// that multiplies its active senders calls this so the trace shows when.
// It returns an error (changing nothing) for a non-positive multiplier.
func (n *Network) SetSenderSpike(mult int) error {
	if mult < 1 {
		return fmt.Errorf("simnet: sender spike multiplier %d must be at least 1", mult)
	}
	n.emit(obs.SenderSpike(n.sim.Now(), mult))
	return nil
}

// SampleQueueDepths emits a per-node egress queue-depth gauge event
// every interval until the given virtual time — the live overload
// signal for a policy layer watching the trace. Sampling draws no
// randomness and schedules nothing when no recorder is installed, so
// it never perturbs an execution's fault schedule.
func (n *Network) SampleQueueDepths(every, until time.Duration) error {
	if every <= 0 {
		return fmt.Errorf("simnet: non-positive sample interval %v", every)
	}
	if !n.rec.Enabled() {
		return nil
	}
	var tick func()
	tick = func() {
		now := n.sim.Now()
		if now > until {
			return
		}
		for i := range n.egress {
			n.emit(obs.QueueDepth(now, ids.ProcID(i), n.egress[i].count))
		}
		n.sim.Schedule(now+every, tick)
	}
	n.sim.Schedule(n.sim.Now()+every, tick)
	return nil
}

// InjectGarbage delivers size seeded-random bytes to dst, forged to
// look like they came from src — the cross-version/garbage slice of the
// adversarial fault model. The bytes bypass the sender-side model (like
// InjectForged) but still traverse the receiver-side fault pipeline.
func (n *Network) InjectGarbage(src, dst ids.ProcID, size int) error {
	if !n.valid(src) || !n.valid(dst) {
		return fmt.Errorf("simnet: garbage %v -> %v out of range", src, dst)
	}
	if size <= 0 {
		return fmt.Errorf("simnet: garbage size %d must be positive", size)
	}
	rng := n.sim.Rand()
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	n.emit(obs.Garbage(n.sim.Now(), dst, src, size))
	n.inject(src, dst, buf)
	return nil
}

// InjectForged delivers an attacker-crafted wire frame to dst, forged
// to appear from src — the forgery slice of the adversarial fault
// model. Unlike InjectGarbage's random bytes, the caller supplies the
// exact frame (a syntactically valid protocol message sealed under the
// wrong — or no — key, say), modeling an adversary who knows the wire
// format but not the group secret. The bytes bypass the sender-side
// model but still traverse the receiver-side fault pipeline. It draws
// nothing beyond what delivery itself draws.
func (n *Network) InjectForged(src, dst ids.ProcID, payload []byte) error {
	if !n.valid(src) || !n.valid(dst) {
		return fmt.Errorf("simnet: forged %v -> %v out of range", src, dst)
	}
	if len(payload) == 0 {
		return fmt.Errorf("simnet: forged frame must be non-empty")
	}
	n.emit(obs.Forged(n.sim.Now(), dst, src, len(payload)))
	n.inject(src, dst, payload)
	return nil
}

// inject delivers a snapshot of payload to dst one propagation delay
// from now, bypassing the sender-side model.
func (n *Network) inject(src, dst ids.ProcID, payload []byte) {
	f := n.snapshot(payload)
	n.scheduleDelivery(src, dst, f, n.sim.Now()+n.cfg.PropDelay)
	n.unref(f)
}

// SetReplayCapture starts recording delivered wire frames — up to max
// of them — for later replay via InjectReplay, modeling an adversary
// with a packet capture. Frames are recorded at delivery scheduling,
// before the receiver-side fault pipeline, so a replayed frame is the
// genuine bytes the sender emitted. A captured frame is kept out of the
// network's recycling until the capture is discarded. Capturing consumes
// no RNG. max <= 0 stops capturing (and discards the buffer).
func (n *Network) SetReplayCapture(max int) {
	n.capMax = max
	if max <= 0 {
		for _, c := range n.captured {
			n.unref(c.f)
		}
		n.captured = nil
	}
}

// CapturedFrames reports how many frames the replay capture holds.
func (n *Network) CapturedFrames() int { return len(n.captured) }

// InjectReplay re-delivers captured frame i (0-based, in capture order)
// to its original destination with its original apparent source — a
// verbatim replay of a genuine transmission, possibly from a retired
// epoch. The frame re-traverses the receiver-side fault pipeline.
func (n *Network) InjectReplay(i int) error {
	if i < 0 || i >= len(n.captured) {
		return fmt.Errorf("simnet: replay index %d out of range [0,%d)", i, len(n.captured))
	}
	c := n.captured[i]
	n.emit(obs.Replayed(n.sim.Now(), c.dst, c.src, len(c.f.b)))
	n.scheduleDelivery(c.src, c.dst, c.f, n.sim.Now()+n.cfg.PropDelay)
	return nil
}

func (n *Network) valid(p ids.ProcID) bool {
	return p >= 0 && int(p) < n.cfg.Nodes
}

// txTime returns how long a payload of the given size occupies the wire.
func (n *Network) txTime(size int) time.Duration {
	if n.cfg.BitsPerSecond <= 0 {
		return 0
	}
	bits := float64(size+n.cfg.FrameOverhead) * 8
	return time.Duration(bits / n.cfg.BitsPerSecond * float64(time.Second))
}

// acquireCPU charges d of CPU time on node p starting no earlier than t,
// returning the completion time. A slow node (SetSlowNode) pays a
// stretched charge.
func (n *Network) acquireCPU(p ids.ProcID, t time.Duration, d time.Duration) time.Duration {
	if f := n.slowFactor[p]; f > 1 {
		d *= time.Duration(f)
	}
	start := t
	if n.cpuFree[p] > start {
		start = n.cpuFree[p]
	}
	done := start + d
	n.cpuFree[p] = done
	return done
}

// newTx takes a transmission record off the free list, binding its
// callbacks if it is a fresh one.
func (n *Network) newTx(f frame) *txRecord {
	var r *txRecord
	if k := len(n.txFree); k > 0 {
		r = n.txFree[k-1]
		n.txFree = n.txFree[:k-1]
	} else {
		r = &txRecord{n: n}
		r.enqueueFn, r.doneFn = r.enqueue, r.done
	}
	r.f = f
	return r
}

// release clears the record and puts it back on the free list.
func (r *txRecord) release() {
	r.f = frame{}
	r.n.txFree = append(r.n.txFree, r)
}

// newRx is newTx for delivery records. f is the frame buf views, or nil
// for a private copy; the record takes a reference to it.
func (n *Network) newRx(src, dst ids.ProcID, buf []byte, f *wireFrame) *rxRecord {
	var r *rxRecord
	if k := len(n.rxFree); k > 0 {
		r = n.rxFree[k-1]
		n.rxFree = n.rxFree[:k-1]
	} else {
		r = &rxRecord{n: n}
		r.arriveFn, r.handleFn = r.arrive, r.handle
	}
	if f != nil {
		f.ref()
	}
	r.src, r.dst, r.buf, r.f = src, dst, buf, f
	return r
}

// enqueueFrame places a frame on its sender's egress queue at virtual
// time t (after the sender's CPU cost) and kicks the medium if idle.
func (n *Network) enqueueFrame(f frame, t time.Duration) {
	n.sim.Schedule(t, n.newTx(f).enqueueFn)
}

// enqueue runs when the sender's CPU is done with the frame. A sender
// that crashed in the meantime never puts it on the wire.
func (r *txRecord) enqueue() {
	n := r.n
	if src := r.f.src; n.crashed[src] {
		dst := r.f.dst
		if r.f.multicast {
			dst = obs.NoProc
		}
		n.dropSend(src, dst)
		n.unref(r.f.buf)
		r.release()
		return
	}
	n.egress[r.f.src].push(r)
	if !n.wireBusy {
		n.serveNext()
	}
}

// serveNext grants the medium to the next node, round-robin, with a
// non-empty egress queue.
func (n *Network) serveNext() {
	for i := 1; i <= n.cfg.Nodes; i++ {
		idx := (n.lastServed + i) % n.cfg.Nodes
		if n.egress[idx].count == 0 {
			continue
		}
		r := n.egress[idx].pop()
		n.lastServed = idx
		n.wireBusy = true
		n.stats.WireBytes += uint64(len(r.f.buf.b) + n.cfg.FrameOverhead)
		n.sim.Schedule(n.sim.Now()+r.f.tx, r.doneFn)
		return
	}
}

// done ends the record's transmission: the record goes back to the free
// list, the frame fans out to its receivers — the transmission's
// reference passes to their deliveries — and the wire serves the next
// queue.
func (r *txRecord) done() {
	n, f := r.n, r.f
	r.release()
	n.wireBusy = false
	n.completeFrame(f)
	n.unref(f.buf)
	n.serveNext()
}

// completeFrame fans a finished transmission out to its receivers: one
// frame, heard by all of them. Deliveries it makes at the same instant
// share one arrival chain.
func (n *Network) completeFrame(f frame) {
	now := n.sim.Now()
	n.fanning = true
	if !f.multicast {
		n.scheduleDelivery(f.src, f.dst, f.buf, now+n.cfg.PropDelay)
	} else {
		for i := 0; i < n.cfg.Nodes; i++ {
			dst := ids.ProcID(i)
			arrival := now + n.cfg.PropDelay
			if dst == f.src {
				// Sender loops its own multicast back without re-crossing
				// the wire (but after the transmission completes, as a real
				// interface would).
				arrival = now
			}
			n.scheduleDelivery(f.src, dst, f.buf, arrival)
		}
	}
	n.closeChains()
}

// Unicast sends payload from src to dst. Passing an unknown node is a
// programming error and returns an error. Delivery is asynchronous,
// subject to the fault model; self-sends are delivered locally without
// touching the wire.
func (n *Network) Unicast(src, dst ids.ProcID, payload []byte) error {
	if !n.valid(src) || !n.valid(dst) {
		return fmt.Errorf("simnet: unicast %v -> %v out of range", src, dst)
	}
	if n.crashed[src] {
		n.dropSend(src, dst)
		return nil // a dead process's residual timers send into the void
	}
	n.stats.Unicasts++
	f := n.snapshot(payload)
	sent := n.acquireCPU(src, n.sim.Now(), n.cfg.SendCPU)
	if src == dst {
		// Local loopback: costs send CPU only.
		n.scheduleDelivery(src, dst, f, sent)
		n.unref(f)
		return nil
	}
	n.enqueueFrame(frame{src: src, dst: dst, buf: f, tx: n.txTime(len(payload))}, sent)
	return nil
}

// Multicast sends payload from src to every node, including src itself
// (local loopback). On the simulated Ethernet a multicast is a single
// transmission heard by all receivers — this asymmetry versus n unicasts
// is essential to the sequencer protocol's economics.
func (n *Network) Multicast(src ids.ProcID, payload []byte) error {
	if !n.valid(src) {
		return fmt.Errorf("simnet: multicast from unknown node %v", src)
	}
	if n.crashed[src] {
		n.dropSend(src, obs.NoProc)
		return nil
	}
	n.stats.Multicasts++
	f := n.snapshot(payload)
	sent := n.acquireCPU(src, n.sim.Now(), n.cfg.SendCPU)
	n.enqueueFrame(frame{src: src, multicast: true, buf: f, tx: n.txTime(len(payload))}, sent)
	return nil
}

// dropSend counts a crashed sender's frame to dst (obs.NoProc for a
// multicast) as dropped.
func (n *Network) dropSend(src, dst ids.ProcID) {
	n.emit(obs.Drop(n.sim.Now(), dst, src, obs.DropBlocked))
}

// scheduleDelivery applies the per-receiver fault model and queues the
// handler invocation behind dst's CPU. f is a frame: immutable from here
// on, and handed as it is to this receiver, to its duplicate and — by
// the caller — to every other receiver of the transmission. Handlers
// only read it. Each delivery scheduled holds a reference to it (newRx).
// A truncation fault is a shorter view of it; a corruption fault, the
// one thing that writes, takes a private copy first.
func (n *Network) scheduleDelivery(src, dst ids.ProcID, f *wireFrame, arrival time.Duration) {
	// Replay capture records the frame before the fault model touches it
	// — the adversary's tap sees what the sender put on the wire. No RNG
	// is consumed here, so enabling capture never perturbs a schedule.
	if n.capMax > 0 && len(n.captured) < n.capMax {
		f.ref()
		n.captured = append(n.captured, capturedFrame{src: src, dst: dst, f: f})
	}
	payload := f.b
	l := n.link(src, dst)
	if n.blocked[l] || n.crashed[src] || n.crashed[dst] {
		n.emit(obs.Drop(n.sim.Now(), dst, src, obs.DropBlocked))
		return
	}
	rng := n.sim.Rand()
	if n.drop > 0 && rng.Float64() < n.drop {
		n.emit(obs.Drop(n.sim.Now(), dst, src, obs.DropRandom))
		return
	}
	// Per-link overrides (SetLinkFaults) layer over the global knobs.
	// Their draws come after the global draws, and a draw happens only
	// when its probability is non-zero. An unset link reads the zero value.
	lf := n.linkFaults[l]
	if lf.drop > 0 && rng.Float64() < lf.drop {
		n.emit(obs.Drop(n.sim.Now(), dst, src, obs.DropRandom))
		return
	}
	copies := 1
	if n.dup > 0 && rng.Float64() < n.dup {
		copies = 2
		n.stats.Duplicated++
	}
	if lf.dup > 0 && rng.Float64() < lf.dup && copies == 1 {
		copies = 2
		n.stats.Duplicated++
	}
	// A link's fixed extra delay shifts every copy deterministically
	// (the asymmetric-latency half of the gray model — no draw).
	arrival += lf.extra
	for c := 0; c < copies; c++ {
		at := arrival
		if n.jitter > 0 {
			j := time.Duration(rng.Int63n(int64(n.jitter)))
			at += j
			if n.rec.Enabled() {
				n.emit(obs.Delay(n.sim.Now(), dst, src, j))
			}
		}
		buf, shared := payload, f
		// Corruption faults mutate a private copy of this one delivery. A
		// draw happens only when its probability is non-zero.
		if n.corrupt > 0 && len(buf) > 0 && rng.Float64() < n.corrupt {
			buf, shared = bytes.Clone(payload), nil
			flips := 1 + rng.Intn(3)
			for i := 0; i < flips; i++ {
				bit := rng.Intn(len(buf) * 8)
				buf[bit/8] ^= 1 << uint(bit%8)
			}
			n.emit(obs.Corrupt(n.sim.Now(), dst, src, flips))
		}
		if n.truncate > 0 && len(buf) > 0 && rng.Float64() < n.truncate {
			keep := rng.Intn(len(buf))
			buf = buf[:keep]
			n.emit(obs.Truncate(n.sim.Now(), dst, src, keep, len(payload)))
		}
		r := n.newRx(src, dst, buf, shared)
		n.queue(r, at, r.arriveFn)
	}
}

// queue schedules fn, the callback of r's chain, at at. During a fan-out
// r instead joins the chain most recently opened at at: the network alone
// schedules while a fan-out is open, so nothing else was scheduled at
// that instant since, and r's own event would have fired right after the
// chain's last one.
func (n *Network) queue(r *rxRecord, at time.Duration, fn func()) {
	if n.fanning {
		for i := len(n.open) - 1; i >= 0; i-- {
			if c := &n.open[i]; c.at == at {
				c.tail.next, c.tail = r, r
				return
			}
		}
		n.open = append(n.open, chain{at: at, tail: r})
	}
	n.sim.Schedule(at, fn)
}

// closeChains ends a fan-out: no later delivery joins a chain opened
// before.
func (n *Network) closeChains() {
	n.fanning = false
	n.open = n.open[:0]
}

// arrive runs when the chain's packets reach their receivers: in chain
// order, each charges receive processing to its node's CPU queue, and its
// handler logically runs when processing completes. Completions that fall
// on the same instant share one completion chain.
func (r *rxRecord) arrive() {
	n := r.n
	n.fanning = true
	for r != nil {
		next := r.next
		r.next = nil
		r.charge()
		r = next
	}
	n.closeChains()
}

// charge is one record's arrival: it queues the record's handler behind
// its receiver's CPU, or runs it at once if receiving costs no CPU.
func (r *rxRecord) charge() {
	n := r.n
	h := n.handlers[r.dst]
	if h == nil || n.crashed[r.dst] {
		n.unref(r.f)
		r.release()
		return
	}
	now := n.sim.Now()
	doneAt := n.acquireCPU(r.dst, now, n.cfg.RecvCPU)
	n.stats.Delivered++
	r.h = h
	if doneAt == now {
		// An inline handler may schedule anything, so nothing joins a
		// chain opened before it runs.
		n.closeChains()
		r.handle()
		n.fanning = true
		return
	}
	n.queue(r, doneAt, r.handleFn)
}

// handle runs the chain's handlers in order. Each record is released
// before its handler runs on the borrowed, read-only bytes; the
// delivery's reference to the frame is dropped when the handler returns.
func (r *rxRecord) handle() {
	n := r.n
	for r != nil {
		next, h, src, buf, f := r.next, r.h, r.src, r.buf, r.f
		r.release()
		h(src, buf)
		n.unref(f)
		r = next
	}
}

func (r *rxRecord) release() {
	r.buf, r.f, r.h, r.next = nil, nil, nil, nil
	r.n.rxFree = append(r.n.rxFree, r)
}
