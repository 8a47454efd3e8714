package harness

import (
	"fmt"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/simnet"
)

// ProtocolKind selects one of the two total-order protocols of §7.
type ProtocolKind int

const (
	// Sequencer is the centralized-sequencer protocol [8].
	Sequencer ProtocolKind = iota + 1
	// Token is the rotating-token protocol [4].
	Token
)

// String renders the kind.
func (k ProtocolKind) String() string {
	switch k {
	case Sequencer:
		return "sequencer"
	case Token:
		return "token"
	default:
		return fmt.Sprintf("ProtocolKind(%d)", int(k))
	}
}

// RunConfig parameterizes one measurement run. DefaultRunConfig is the
// paper's §7 setup: a 10-member group on a 10 Mbit Ethernet with 50
// messages per second per active sender. Every field means what it
// says; a zero is never replaced by a default.
type RunConfig struct {
	Seed          int64
	Group         int
	ActiveSenders int
	// RatePerSender is messages per second per active sender.
	RatePerSender float64
	// MsgBytes is the application payload size.
	MsgBytes int
	// Warmup is discarded (zero measures from the start); Measure is
	// the sampled window; Drain lets in-flight messages land after
	// sending stops.
	Warmup, Measure, Drain time.Duration
	// Recorder, when set, receives the run's structured events: the
	// switching layer's (hybrid runs only) and the simulated network's.
	Recorder obs.Recorder
	// Net overrides the simulated network (nil uses the paper's
	// calibrated 10 Mbit Ethernet). Nodes is forced to Group.
	Net *simnet.Config
}

// DefaultRunConfig returns the §7 parameters.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Seed:          1,
		Group:         10,
		ActiveSenders: 1,
		RatePerSender: 50,
		MsgBytes:      2240,
		Warmup:        2 * time.Second,
		Measure:       10 * time.Second,
		Drain:         5 * time.Second,
	}
}

// validate rejects a run with a non-positive group, sender count, rate,
// message size or measurement window, or a negative warmup or drain.
func (rc RunConfig) validate() error {
	if rc.Group <= 0 || rc.ActiveSenders <= 0 || rc.RatePerSender <= 0 || rc.MsgBytes <= 0 {
		return fmt.Errorf("harness: run needs a positive group (%d), sender count (%d), rate (%g) and message size (%d)",
			rc.Group, rc.ActiveSenders, rc.RatePerSender, rc.MsgBytes)
	}
	if rc.Measure <= 0 || rc.Warmup < 0 || rc.Drain < 0 {
		return fmt.Errorf("harness: run needs a positive measure window (%v) and a non-negative warmup (%v) and drain (%v)",
			rc.Measure, rc.Warmup, rc.Drain)
	}
	return nil
}

// netConfig resolves the run's simulated network.
func (rc RunConfig) netConfig() simnet.Config {
	if rc.Net == nil {
		return simnet.Ethernet10Mbit(rc.Group)
	}
	cfg := *rc.Net
	cfg.Nodes = rc.Group
	return cfg
}

// tokenHold is the token protocol's per-hop hold time.
const tokenHold = time.Millisecond

// Layers builds the stack (top first) for one protocol kind.
func Layers(kind ProtocolKind) []proto.Layer {
	switch kind {
	case Sequencer:
		return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
	case Token:
		return []proto.Layer{tokenorder.New(tokenorder.Config{HoldDelay: tokenHold}), fifo.New(fifo.Config{})}
	default:
		panic(fmt.Sprintf("harness: unknown protocol kind %d", kind))
	}
}

// Factories returns switching-protocol factories for [Sequencer, Token].
func Factories() []switching.ProtocolFactory {
	return []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer { return Layers(Sequencer) },
		func(proto.Env) []proto.Layer { return Layers(Token) },
	}
}

// sendRecord tracks one in-flight measured message: when it was cast
// and how many group deliveries are still outstanding.
type sendRecord struct {
	at        time.Duration
	remaining int
}

// timedSample pairs one latency sample with the send time that
// produced it, so experiments can bucket latency by workload phase
// (the flash-crowd study's before/during/after split).
type timedSample struct {
	sentAt time.Duration
	lat    time.Duration
}

// collector gathers latency samples from one group execution.
type collector struct {
	rc       RunConfig
	sendTime map[ids.MsgID]sendRecord
	samples  []time.Duration
	// keepTimes additionally retains (sendAt, latency) pairs in timed.
	keepTimes bool
	timed     []timedSample
	// delivered counts all app-level deliveries (for throughput).
	delivered uint64
	// hook, if set, observes every delivery (used by the overhead
	// experiment to find delivery gaps).
	hook func(now time.Duration)
}

func newCollector(rc RunConfig) *collector {
	return &collector{rc: rc, sendTime: make(map[ids.MsgID]sendRecord)}
}

// recordSend notes the cast of one measured message. The entry lives
// until the whole group has delivered it (or until the first delivery
// shows it fell outside the measurement window), so the map tracks only
// in-flight messages instead of every message ever sent — long
// hysteresis/chaos runs would otherwise hold O(total messages) memory.
func (c *collector) recordSend(id ids.MsgID, now time.Duration) {
	c.sendTime[id] = sendRecord{at: now, remaining: c.rc.Group}
}

// onDeliver records a sample for one delivery at virtual time now.
func (c *collector) onDeliver(now time.Duration, id ids.MsgID) {
	c.delivered++
	if c.hook != nil {
		c.hook(now)
	}
	rec, ok := c.sendTime[id]
	if !ok {
		return
	}
	if rec.at < c.rc.Warmup || rec.at >= c.rc.Warmup+c.rc.Measure {
		// Outside the window: no sample will ever be taken, so the
		// entry is dead weight — drop it on first delivery.
		delete(c.sendTime, id)
		return
	}
	c.samples = append(c.samples, now-rec.at)
	if c.keepTimes {
		c.timed = append(c.timed, timedSample{sentAt: rec.at, lat: now - rec.at})
	}
	rec.remaining--
	if rec.remaining <= 0 {
		delete(c.sendTime, id)
		return
	}
	c.sendTime[id] = rec
}

// inFlight returns how many measured messages still await deliveries
// (exported to tests via the harness package).
func (c *collector) inFlight() int { return len(c.sendTime) }

// SetDeliveryHook installs an observer called on every app delivery.
func (r *SwitchedRun) SetDeliveryHook(fn func(now time.Duration)) {
	r.Collector.hook = fn
}

// senderSchedule installs the constant-rate senders on a simulator-side
// cast function. Senders are phase-shifted so they do not fire in
// lockstep, with small per-message jitter.
func senderSchedule(rc RunConfig, now func() time.Duration, after func(time.Duration, func()), rnd func(int64) int64, cast func(p ids.ProcID, seq uint32)) {
	interval := time.Duration(float64(time.Second) / rc.RatePerSender)
	stopAt := rc.Warmup + rc.Measure
	for s := 0; s < rc.ActiveSenders; s++ {
		p := ids.ProcID(s)
		phase := time.Duration(s) * interval / time.Duration(rc.ActiveSenders)
		seq := uint32(0)
		var tick func()
		tick = func() {
			if now() >= stopAt {
				return
			}
			seq++
			cast(p, seq)
			jitter := time.Duration(rnd(int64(interval / 5)))
			after(interval-interval/10+jitter, tick)
		}
		after(phase, tick)
	}
}

// Result is the outcome of one measurement run.
type Result struct {
	Stats LatencyStats
	// Sent is the number of messages cast in the measurement window.
	Sent int
	// Delivered is the number of app-level deliveries over the run.
	Delivered uint64
	// Events is the number of DES handler invocations the run executed
	// (deterministic for a given seed and config).
	Events uint64
}

// measuringApp returns an AppFactory that feeds the collector instead
// of recording payloads.
func measuringApp(col *collector) func(sim *des.Sim) proto.Up {
	return func(sim *des.Sim) proto.Up {
		return proto.UpFunc(func(src ids.ProcID, payload []byte) {
			id, err := proto.DecodeAppID(payload)
			if err != nil {
				return
			}
			col.onDeliver(sim.Now(), id)
		})
	}
}

// RunDirect measures one protocol without the switching layer — the raw
// curves of Figure 2.
func RunDirect(kind ProtocolKind, rc RunConfig) (Result, error) {
	if err := rc.validate(); err != nil {
		return Result{}, err
	}
	col := newCollector(rc)
	app := measuringApp(col)
	cluster, err := ptest.NewWithApp(rc.Seed, rc.netConfig(), rc.Group,
		func(proto.Env) []proto.Layer { return Layers(kind) },
		func(_ *ptest.Member, sim *des.Sim) proto.Up { return app(sim) })
	if err != nil {
		return Result{}, err
	}
	cluster.Net.SetRecorder(rc.Recorder)
	body := make([]byte, rc.MsgBytes)
	sent := 0
	cast := func(p ids.ProcID, seq uint32) {
		m := proto.AppMsg{ID: proto.MakeMsgID(p, seq), Sender: p, Body: body}
		col.recordSend(m.ID, cluster.Sim.Now())
		if cluster.Sim.Now() >= rc.Warmup && cluster.Sim.Now() < rc.Warmup+rc.Measure {
			sent++
		}
		if err := cluster.Members[p].Stack.Cast(m.Encode()); err != nil {
			panic(err) // deterministic sim: a cast error is a bug
		}
	}
	senderSchedule(rc, cluster.Sim.Now,
		func(d time.Duration, fn func()) { cluster.Sim.After(d, fn) },
		cluster.Sim.Rand().Int63n, cast)
	cluster.Run(rc.Warmup + rc.Measure + rc.Drain)
	cluster.Stop()
	return Result{Stats: Summarize(col.samples), Sent: sent, Delivered: col.delivered,
		Events: cluster.Sim.Executed()}, nil
}

// SwitchedRun is a hybrid (switching) execution with measurement hooks.
type SwitchedRun struct {
	Cluster   *swtest.SwitchedCluster
	Collector *collector
	rc        RunConfig
	body      []byte
	seqs      []uint32
	// SentInWindow counts casts inside the measurement window.
	SentInWindow int
}

// NewSwitchedRun assembles a measuring hybrid cluster without starting
// the workload (callers install oracles/controllers first).
func NewSwitchedRun(rc RunConfig, swCfg switching.Config) (*SwitchedRun, error) {
	if err := rc.validate(); err != nil {
		return nil, err
	}
	if swCfg.Protocols == nil {
		swCfg.Protocols = Factories()
	}
	if swCfg.Recorder == nil {
		swCfg.Recorder = rc.Recorder
	}
	col := newCollector(rc)
	app := measuringApp(col)
	cluster, err := swtest.NewSwitchedWithApp(rc.Seed, rc.netConfig(), rc.Group, swCfg,
		func(_ *swtest.SwitchedMember, sim *des.Sim) proto.Up { return app(sim) })
	if err != nil {
		return nil, err
	}
	cluster.Net.SetRecorder(rc.Recorder)
	return &SwitchedRun{
		Cluster:   cluster,
		Collector: col,
		rc:        rc,
		body:      make([]byte, rc.MsgBytes),
		seqs:      make([]uint32, rc.Group),
	}, nil
}

// Cast sends one measured message from p.
func (r *SwitchedRun) Cast(p ids.ProcID) {
	r.seqs[p]++
	m := proto.AppMsg{ID: proto.MakeMsgID(p, r.seqs[p]), Sender: p, Body: r.body}
	now := r.Cluster.Sim.Now()
	r.Collector.recordSend(m.ID, now)
	if now >= r.rc.Warmup && now < r.rc.Warmup+r.rc.Measure {
		r.SentInWindow++
	}
	if err := r.Cluster.Members[p].Switch.Cast(m.Encode()); err != nil {
		panic(err) // deterministic sim: a cast error is a bug
	}
}

// StartWorkload installs the §7 constant-rate senders.
func (r *SwitchedRun) StartWorkload() {
	senderSchedule(r.rc, r.Cluster.Sim.Now,
		func(d time.Duration, fn func()) { r.Cluster.Sim.After(d, fn) },
		r.Cluster.Sim.Rand().Int63n,
		func(p ids.ProcID, _ uint32) { r.Cast(p) })
}

// Finish drives the run to completion and summarizes.
func (r *SwitchedRun) Finish() Result {
	r.Cluster.Run(r.rc.Warmup + r.rc.Measure + r.rc.Drain)
	r.Cluster.Stop()
	return Result{Stats: Summarize(r.Collector.samples), Sent: r.SentInWindow,
		Delivered: r.Collector.delivered, Events: r.Cluster.Sim.Executed()}
}

// pollEvery is how often a controller samples the active-sender metric
// (the Figure 2 hybrid's and the oscillation study's).
const pollEvery = 100 * time.Millisecond

// RunSwitched measures the hybrid: the switching protocol over both
// total-order protocols, a controller polling the active-sender metric
// through the given oracle.
func RunSwitched(rc RunConfig, oracle switching.Oracle) (Result, error) {
	run, err := NewSwitchedRun(rc, switching.PaperExact(Factories()...))
	if err != nil {
		return Result{}, err
	}
	metric := func() float64 { return float64(rc.ActiveSenders) }
	if oracle != nil {
		// The manager is member 0.
		if _, err := switching.NewController(run.Cluster.Members[0].Switch, oracle, metric, pollEvery); err != nil {
			return Result{}, err
		}
	}
	run.StartWorkload()
	return run.Finish(), nil
}
