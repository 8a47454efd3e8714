package main

// Every call from the benchmark into the program under test is in this
// file: cluster construction, the two switching profiles, the chaos
// runner, and the isolated per-layer replays. A PR that changes one of
// these APIs needs a benchmark follow-up in this file only; trace.go
// touches the program's interface types (proto.Layer/Env/Down/Up) but
// calls none of its functions.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chaos"
	"repro/internal/core/switching"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/runtime/simenv"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// sessionKey is the fixed group secret of the hardened profile.
var sessionKey = []byte("bench group session key")

// tokenHold is tokenorder's per-hop hold, the harness default.
const tokenHold = time.Millisecond

// fastNIC is E18's network: fast enough that the host's execution of
// the stack, not the modelled wire, is what a run spends its time on.
func fastNIC(nodes int) simnet.Config {
	return simnet.Config{
		Nodes:         nodes,
		PropDelay:     50 * time.Microsecond,
		BitsPerSecond: 100e6,
		FrameOverhead: 64,
		RecvCPU:       20 * time.Microsecond,
		SendCPU:       10 * time.Microsecond,
	}
}

func (s trafficSpec) netConfig() simnet.Config {
	if s.hardened {
		return fastNIC(s.members)
	}
	return simnet.Ethernet10Mbit(s.members)
}

// factory builds one protocol slot. Every layer goes through tr.layer,
// which is the identity when tracing is off.
func (s trafficSpec) factory(slot string, tr *tracer) switching.ProtocolFactory {
	return func(proto.Env) []proto.Layer {
		var top proto.Layer
		switch slot {
		case "seq":
			top = tr.layer(layerSeqorder, seqorder.New(0), true, false)
		case "tok":
			top = tr.layer(layerTokenorder,
				tokenorder.New(tokenorder.Config{HoldDelay: tokenHold, BatchFlush: s.hardened}), true, false)
		default:
			panic("bench: unknown protocol slot " + slot)
		}
		return []proto.Layer{top, tr.layer(layerFifo, fifo.New(fifo.Config{}), false, true)}
	}
}

// switchConfig is the profile: the paper-exact §2 protocol (plain
// frames, unbounded queues, no recovery), or everything on — the
// would-be Hardened profile of ROADMAP's first open item, at E18's
// generous overload caps so nothing is shed.
func (s trafficSpec) switchConfig(tr *tracer) switching.Config {
	cfg := switching.Config{
		Protocols: []switching.ProtocolFactory{s.factory(s.slots[0], tr), s.factory(s.slots[1], tr)},
	}
	if !s.hardened {
		return cfg
	}
	cfg.Defense = &switching.DefenseConfig{
		QuarantineThreshold: 1 << 20,
		Auth:                &switching.AuthConfig{SessionKey: sessionKey},
	}
	cfg.Overload = &switching.OverloadConfig{
		IngressQueueCap: 4096,
		EgressQueueCap:  4096,
		LowWatermark:    64,
		HighWatermark:   2048,
		ServiceInterval: 100 * time.Microsecond,
		RetryBackoff:    time.Millisecond,
		MaxRetryShift:   2,
		BatchMax:        8,
	}
	cfg.Recovery = &switching.RecoveryConfig{Adaptive: &switching.AdaptiveConfig{}}
	return cfg
}

// cluster is one simulated group running the switching stack.
type cluster struct {
	sim *des.Sim
	net *simnet.Network
	sw  []*switching.Switch
	tr  *tracer
}

// newCluster builds the group. appFor returns member m's delivery
// callback; tr wraps every layer boundary (identity when tr is nil).
func newCluster(spec trafficSpec, seed int64, tr *tracer, appFor func(m int) func(payload []byte)) (*cluster, error) {
	sim := des.New(seed)
	net, err := simnet.New(sim, spec.netConfig())
	if err != nil {
		return nil, err
	}
	group, err := simenv.NewGroup(sim, net, spec.members)
	if err != nil {
		return nil, err
	}
	c := &cluster{sim: sim, net: net, tr: tr}
	swCfg := spec.switchConfig(tr)
	for m, node := range group.Nodes() {
		deliver := appFor(m)
		app := tr.up(layerApp, proto.UpFunc(func(_ ids.ProcID, payload []byte) { deliver(payload) }))
		sw, err := switching.New(tr.env(layerSwitching, node), app, tr.transport(node.Transport()), swCfg)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", m, err)
		}
		if err := node.BindStack(tr.handler(sw.Recv)); err != nil {
			return nil, err
		}
		c.sw = append(c.sw, sw)
	}
	return c, nil
}

func (c *cluster) now() time.Duration { return c.sim.Now() }
func (c *cluster) step() bool         { return c.sim.Step() }
func (c *cluster) pending() int       { return c.sim.Pending() }

func (c *cluster) after(d time.Duration, fn func()) { c.sim.After(d, fn) }

func (c *cluster) stop() {
	for _, sw := range c.sw {
		sw.Stop()
	}
}

// cast multicasts message g from member p and returns the epoch it was
// sent in.
func (c *cluster) cast(p int, g uint32, body []byte) uint64 {
	sw := c.sw[p]
	epoch := sw.SendEpoch()
	c.tr.enter(layerApp)
	m := proto.AppMsg{ID: proto.MakeMsgID(ids.ProcID(p), g), Sender: ids.ProcID(p), Body: body}
	payload := m.Encode()
	c.tr.enter(layerSwitching)
	err := sw.Cast(payload)
	c.tr.exit()
	c.tr.exit()
	if err != nil {
		panic(err) // deterministic simulation: a cast error is a bug
	}
	return epoch
}

// decodeMsg is the application's per-delivery decode: it recovers the
// message index cast() put into the id.
func decodeMsg(payload []byte) (uint32, bool) {
	id, err := proto.DecodeAppID(payload)
	return uint32(id), err == nil
}

func (c *cluster) epoch(m int) uint64  { return c.sw[m].Epoch() }
func (c *cluster) requestSwitch(m int) { c.sw[m].RequestSwitch() }

// switchRecord is one completed switch as its initiator saw it.
type switchRecord struct{ started, finished time.Duration }

func (c *cluster) switchRecords(m int) []switchRecord {
	var out []switchRecord
	for _, r := range c.sw[m].Records() {
		out = append(out, switchRecord{r.Started, r.Finished})
	}
	return out
}

// stackCounts are the program's own counters, summed over members.
type stackCounts struct {
	tokenPasses, buffered, switches uint64
	netDelivered, netWireBytes      uint64
}

func (c *cluster) counts() stackCounts {
	var sc stackCounts
	for _, sw := range c.sw {
		st := sw.Stats()
		sc.tokenPasses += st.TokenPasses
		sc.buffered += st.Buffered
		sc.switches += st.SwitchesCompleted
	}
	ns := c.net.Stats()
	sc.netDelivered, sc.netWireBytes = ns.Delivered, ns.WireBytes
	return sc
}

// faultMix is the chaos generator configuration of fault_mix: every
// fault class the runner knows, composed.
var faultMix = chaos.GenConfig{Corruption: true, Forgery: true, FlashCrowd: true, GrayFailure: true}

// Recovery-bound experiment parameters (chaos.MeasureRecovery).
const (
	recoveryMembers  = 6
	recoveryInterval = 5 * time.Millisecond
)

func generateSchedule(seed int64) (chaos.Schedule, error) { return chaos.Generate(seed, faultMix) }

// faultResult is what one schedule replay reports, all exact per seed.
type faultResult struct {
	failed     bool
	violations []string
	events     uint64
	delivered  int
	// counters in faultCounterNames order
	counters [8]uint64
}

var faultCounterNames = [8]string{
	"recovery.token_regens", "recovery.switch_aborts", "recovery.wedge_timeouts",
	"defense.malformed_dropped", "defense.auth_rejected",
	"overload.shed", "overload.retried", "adaptive.degraded_skips",
}

func runSchedule(s chaos.Schedule) (faultResult, error) {
	res, err := chaos.Run(s, chaos.RunConfig{})
	if err != nil {
		return faultResult{}, err
	}
	st := res.Stats
	return faultResult{
		failed:     res.Failed(),
		violations: res.Violations,
		events:     res.Events,
		delivered:  res.Delivered,
		counters: [8]uint64{st.TokensRegenerated, st.SwitchesAborted, st.WedgeTimeouts,
			st.MalformedDropped, st.AuthFailed, st.Shed, st.RetriedSends, st.DegradedSkips},
	}, nil
}

func measureRecovery(seed int64) (time.Duration, error) {
	return chaos.MeasureRecovery(seed, recoveryMembers, recoveryInterval)
}

// --- isolated replays of the captured transport-frame stream ---------

// isoResult is one isolated replay: mean host cost per frame (or per
// event) and allocations per frame.
type isoResult struct{ nsPer, allocsPer float64 }

// timeLoop runs fn n times and returns its mean cost.
func timeLoop(n int, fn func(i int)) isoResult {
	if n == 0 {
		return isoResult{}
	}
	m := measure(func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return isoResult{nsPer: float64(m.wall.Nanoseconds()) / float64(n), allocsPer: float64(m.mallocs) / float64(n)}
}

// isoWire replays the frame sizes through the authenticated envelope:
// seal into a reused buffer, then open the sealed bytes.
func isoWire(sizes []int) (seal, open isoResult) {
	sealer := wire.NewAuthSealer(wire.DeriveEpochKey(sessionKey, 0), 0)
	payload := make([]byte, maxInt(sizes))
	buf := make([]byte, 0, len(payload)+wire.MaxAuthOverhead)
	sealed := make([][]byte, len(sizes))
	for i, n := range sizes {
		sealed[i] = sealer.SealTo(nil, payload[:n])
	}
	seal = timeLoop(len(sizes), func(i int) { buf = sealer.SealTo(buf[:0], payload[:sizes[i]]) })
	open = timeLoop(len(sizes), func(i int) {
		if _, err := sealer.Open(sealed[i]); err != nil {
			panic(err)
		}
	})
	return seal, open
}

// loopDown hands every frame cast into it straight back to recv, the
// way a loop-back wire would.
type loopDown struct {
	recv func(src ids.ProcID, pkt []byte)
}

func (d *loopDown) Cast(p []byte) error               { d.recv(0, p); return nil }
func (d *loopDown) Send(_ ids.ProcID, p []byte) error { d.recv(0, p); return nil }

// isoMux replays the frame sizes through one multiplex channel: Port
// Cast tags the frame, the loop-back hands it to Recv, Recv routes it to
// a no-op receiver.
func isoMux(sizes []int) (isoResult, error) {
	down := &loopDown{}
	mux, err := switching.NewMultiplex(down)
	if err != nil {
		return isoResult{}, err
	}
	down.recv = mux.Recv
	ch := ids.ProtocolChannel(0)
	mux.Bind(ch, proto.UpFunc(func(ids.ProcID, []byte) {}))
	port := mux.Port(ch)
	payload := make([]byte, maxInt(sizes))
	return timeLoop(len(sizes), func(i int) { _ = port.Cast(payload[:sizes[i]]) }), nil
}

// isoSimnet replays the frame sizes as multicasts on the workload's
// network to no-op handlers, running each to delivery.
func isoSimnet(cfg simnet.Config, sizes []int) (isoResult, error) {
	sim := des.New(1)
	net, err := simnet.New(sim, cfg)
	if err != nil {
		return isoResult{}, err
	}
	for p := 0; p < cfg.Nodes; p++ {
		if err := net.Bind(ids.ProcID(p), func(ids.ProcID, []byte) {}); err != nil {
			return isoResult{}, err
		}
	}
	payload := make([]byte, maxInt(sizes))
	return timeLoop(len(sizes), func(i int) {
		_ = net.Multicast(ids.ProcID(i%cfg.Nodes), payload[:sizes[i]])
		for sim.Step() {
		}
	}), nil
}

// isoDES measures one schedule+pop on a queue held at the given depth.
func isoDES(depth, events int) isoResult {
	sim := des.New(1)
	nop := func() {}
	for i := 0; i < depth; i++ {
		sim.After(time.Duration(math.MaxInt64/2), nop)
	}
	return timeLoop(events, func(int) {
		sim.After(time.Microsecond, nop)
		sim.Step()
	})
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
