package chaos

import (
	"fmt"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/proto"
	"repro/internal/protocols/fd"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// RunConfig tunes the schedule runner.
type RunConfig struct {
	// Settle is how long after the horizon (all faults healed) the
	// system gets to converge before the liveness probes are sent
	// (default 400ms — dozens of token rotations and several failure
	// detector periods).
	Settle time.Duration
	// Drain is how long the probes get to arrive (default 1s; FIFO
	// retransmission may need several of its resend intervals after a
	// heavy drop burst).
	Drain time.Duration
	// Recorder, when set, additionally receives every protocol and
	// network event of the run (the runner always keeps its own metrics
	// registry and flight recorder regardless).
	Recorder obs.Recorder
	// Telemetry additionally runs the windowed sampler and switch-decision
	// audit trail over the run's event stream and attaches the series to
	// the result. Off keeps the exact recorder fan-out of telemetry-free
	// runs (and the obs.Nop fast path when nothing else records).
	Telemetry bool
	// FixedDetector runs the fixed-timeout failure detector alone,
	// without adaptive suspicion and flap damping — the baseline arm of
	// the E20 stability study.
	FixedDetector bool
}

func (c *RunConfig) defaults() {
	if c.Settle == 0 {
		c.Settle = 400 * time.Millisecond
	}
	if c.Drain == 0 {
		c.Drain = time.Second
	}
}

// The runner's fixed parameters.
const (
	// TokenInterval is the switching layer's idle rotation pace.
	// Recovery timeouts scale from it.
	TokenInterval = 5 * time.Millisecond
	// propDelay is the simulated one-way network delay.
	propDelay = 300 * time.Microsecond
	// disruptionBudget caps the recovery actions (token regenerations
	// plus switch-round aborts, summed over members) the
	// bounded-disruption invariant tolerates per disruptionWindow of
	// virtual time.
	disruptionBudget = 40
)

// disruptionWindow is the virtual-time bucket width of the
// bounded-disruption invariant: recovery actions are counted per
// window, so a run that churns briefly and recovers passes while a run
// that thrashes continuously fails — regardless of total run length.
const disruptionWindow = 100 * time.Millisecond

// disruptionTracker counts the recovery actions (token regenerations
// and switch-round aborts, all members together) falling in each
// disruptionWindow, for the bounded-disruption invariant. It is a
// plain recorder: it draws no RNG and never perturbs the run.
type disruptionTracker struct {
	counts map[int64]int
}

func newDisruptionTracker() *disruptionTracker {
	return &disruptionTracker{counts: make(map[int64]int)}
}

// Enabled reports true (Recorder contract).
func (d *disruptionTracker) Enabled() bool { return true }

// Record tallies recovery actions into their window.
func (d *disruptionTracker) Record(e obs.Event) {
	switch e.Type {
	case obs.EvTokenRegen, obs.EvSwitchAbort:
		d.counts[int64(e.At/disruptionWindow)]++
	}
}

// adaptiveConfig is the gray-failure detector tuning used by the
// runner (and by MeasureDetection, so the E20 latency comparison
// measures exactly the detector the sweep runs). The half-life is
// stretched to 20 heartbeat intervals so the 30–60ms flap cadence the
// generator draws actually accumulates penalty (at the default 10× the
// charge would decay between flaps and damping would never engage),
// while still decaying past reuse well inside the post-heal settle.
// The raise level sits just under the fixed detector's 5×Interval so
// that, against a steady heartbeat stream, the graded path is the one
// that detects true crashes (at effectively the same latency) — while
// a peer whose observed cadence has stretched gets a proportionally
// longer leash instead of a false suspicion.
func adaptiveConfig(ti time.Duration) *switching.AdaptiveConfig {
	return &switching.AdaptiveConfig{
		RaiseLevel: 4 * obs.SuspicionScale,
		HalfLife:   20 * ti,
	}
}

// Result is the outcome of one schedule replay.
type Result struct {
	Seed    int64
	Kinds   []Kind
	Crashed []ids.ProcID
	Live    []ids.ProcID
	// FinalEpoch is the epoch every live member converged to.
	FinalEpoch uint64
	// Delivered is the total number of application deliveries across
	// live members.
	Delivered int
	// Stats aggregates the switching stats of the live members.
	Stats switching.Stats
	// Events is the number of DES events the run executed
	// (deterministic per seed).
	Events uint64
	// Forged and Replayed count the adversary's wire-level injections
	// (the registry's forged and replayed events summed over members;
	// deterministic per seed, zero on forgery-free schedules).
	Forged   uint64
	Replayed uint64
	// Violations lists every invariant breach; empty means the run
	// passed.
	Violations []string
	// Metrics is the per-member registry built from the run's event
	// stream, crashed members included.
	Metrics *obs.Metrics
	// FlightRecord is the tail of the event stream (oldest first) when
	// the run failed an invariant; nil on a clean run. FlightDropped is
	// how many earlier events the bounded ring discarded.
	FlightRecord  []obs.Event
	FlightDropped uint64
	// Windows and Rounds are the telemetry series of the run — the
	// sampler's closed windows and the audit trail's per-epoch switch
	// records — when RunConfig.Telemetry was set; nil otherwise.
	Windows []telemetry.Window
	Rounds  []telemetry.Round
	// TelemetryTail is the last few windows before the failure (a
	// quick-look snapshot next to the flight-recorder trace); nil on
	// clean or telemetry-free runs.
	TelemetryTail []telemetry.Window
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// quarantineThreshold is the defensive ingress's escalation point: a
// peer delivering this many rejected packets is force-suspected. It is
// set high enough that a victim of a corruption window is not
// quarantined by a handful of damaged frames, yet low enough that
// garbage floods escalate within a schedule.
const quarantineThreshold = 25

// pair returns the two sub-protocols used under chaos: sequencer-based
// total order anchored at members 0 and 1. Both sequencers are exempt
// from generated faults, so post-heal liveness failures implicate the
// switching layer rather than a sub-protocol that lost its coordinator.
func pair() []switching.ProtocolFactory {
	return []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(1), fifo.New(fifo.Config{})}
		},
	}
}

// eventBudget bounds the DES events one schedule's run may execute.
// Over Generate seeds 1–200 of every tier at the default RunConfig, the
// largest clean run executed 28 708 events (the cross-tier sweep; the
// single-fault tiers peak at 18 396–26 314); the budget is about four
// times that. A livelocked stack runs tens of millions of events before
// anything else stops it.
const eventBudget = 115_000

// Run replays one schedule and checks the invariants. The simulation is
// seeded from the schedule, so the whole run is deterministic.
func Run(sched Schedule, cfg RunConfig) (*Result, error) {
	res, _, err := run(sched, cfg, nil)
	return res, err
}

// run is Run with the cluster exposed, so white-box tests can compare
// the event-derived metrics against the protocol's own counters — and,
// through prepare, reach the cluster once it is built and before
// anything is scheduled on it.
func run(sched Schedule, cfg RunConfig, prepare func(*swtest.SwitchedCluster)) (*Result, *swtest.SwitchedCluster, error) {
	cfg.defaults()
	metrics := obs.NewMetrics()
	flight := obs.NewFlightRecorder(obs.DefaultFlightSize)
	disrupt := newDisruptionTracker()
	recs := []obs.Recorder{metrics, flight, disrupt, cfg.Recorder}
	var tel *telemetry.Telemetry
	if cfg.Telemetry {
		tel = telemetry.New(len(pair()))
		// Appended conditionally: a typed-nil *Telemetry inside the
		// interface would defeat Multi's nil filter.
		recs = append(recs, tel)
	}
	rec := obs.Multi(recs...)
	ti := TokenInterval
	// One stack for every schedule: Hardened, at values tight enough that
	// each defence is exercised whichever faults the schedule holds.
	swCfg := switching.Hardened(chaosSessionKey, pair()...)
	swCfg.TokenInterval = ti
	swCfg.Recorder = rec
	swCfg.Recovery.Detector = fd.Config{Interval: ti}
	swCfg.Recovery.Adaptive = adaptiveConfig(ti)
	if cfg.FixedDetector {
		swCfg.Recovery.Adaptive = nil
	}
	swCfg.Defense.QuarantineThreshold = quarantineThreshold
	// The caps are deliberately tight against the flash-crowd cadence
	// (~30µs between spike casts vs a 200µs-per-frame service pace) so a
	// spike exercises shedding, backpressure and retries rather than
	// being absorbed. BatchMax 2 keeps the batch wire format under every
	// sweep; the service interval is doubled against it so the
	// frames-per-second capacity is that of one frame per 200µs.
	swCfg.Overload = &switching.OverloadConfig{
		IngressQueueCap: 16,
		EgressQueueCap:  8,
		LowWatermark:    2,
		HighWatermark:   6,
		ServiceInterval: 400 * time.Microsecond,
		RetryBackoff:    800 * time.Microsecond,
		MaxRetryShift:   3,
		BatchMax:        2,
	}
	// Per-packet CPU gives KindSlowNode a resource to stretch; the costs
	// are small against the 5ms heartbeat cadence so an unstretched
	// member is unaffected.
	netCfg := simnet.Config{
		Nodes:     sched.N,
		PropDelay: propDelay,
		RecvCPU:   50 * time.Microsecond,
		SendCPU:   30 * time.Microsecond,
	}
	c, err := swtest.NewSwitched(sched.Seed, netCfg, sched.N, swCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: build cluster: %w", err)
	}
	c.Net.SetRecorder(rec)
	if prepare != nil {
		prepare(c)
	}
	if sched.HasForgery() {
		// The adversary's packet tap: record genuine wire frames so the
		// KindReplay events have material to re-inject. Capturing draws
		// no RNG, so it never perturbs the schedule.
		c.Net.SetReplayCapture(replayCaptureMax)
	}
	if sched.HasFlashCrowd() {
		// Per-node egress depth samples over the fault window, for the
		// trace. Sampling draws no RNG and emits trace-only events, so it
		// never perturbs the schedule or the event-derived stats.
		_ = c.Net.SampleQueueDepths(time.Millisecond, sched.Horizon)
	}

	res := &Result{Seed: sched.Seed, Kinds: sched.Kinds(), Metrics: metrics}

	// Faults. Corruption and truncation windows may overlap, so their
	// closures keep the current value of each knob and reapply both on
	// every window edge (the simulation executes them in time order).
	var curCorrupt, curTruncate float64
	for _, ev := range sched.Events {
		ev := ev
		switch ev.Kind {
		case KindCrash:
			c.Sim.At(ev.At, func() { c.Net.Crash(ev.Target) })
			res.Crashed = append(res.Crashed, ev.Target)
		case KindPartition:
			rest := othersOf(sched.N, ev.Target)
			c.Sim.At(ev.At, func() { c.Net.Partition([]ids.ProcID{ev.Target}, rest) })
			c.Sim.At(ev.Until, func() { c.Net.Heal() })
		case KindBurst:
			c.Sim.At(ev.At, func() { _ = c.Net.SetFaults(ev.Drop, ev.Dup, ev.Jitter) })
			c.Sim.At(ev.Until, func() { _ = c.Net.SetFaults(0, 0, 0) })
		case KindCorrupt:
			c.Sim.At(ev.At, func() {
				curCorrupt = ev.Corrupt
				_ = c.Net.SetCorruption(curCorrupt, curTruncate)
			})
			c.Sim.At(ev.Until, func() {
				curCorrupt = 0
				_ = c.Net.SetCorruption(curCorrupt, curTruncate)
			})
		case KindTruncate:
			c.Sim.At(ev.At, func() {
				curTruncate = ev.Truncate
				_ = c.Net.SetCorruption(curCorrupt, curTruncate)
			})
			c.Sim.At(ev.Until, func() {
				curTruncate = 0
				_ = c.Net.SetCorruption(curCorrupt, curTruncate)
			})
		case KindGarbage:
			c.Sim.At(ev.At, func() {
				if c.Net.Crashed(ev.From) || c.Net.Crashed(ev.Target) {
					return
				}
				_ = c.Net.InjectGarbage(ev.From, ev.Target, ev.Size)
			})
		case KindForge:
			c.Sim.At(ev.At, func() {
				if c.Net.Crashed(ev.From) || c.Net.Crashed(ev.Target) {
					return
				}
				_ = c.Net.InjectForged(ev.From, ev.Target, forgedFrame(ev))
			})
		case KindReplay:
			c.Sim.At(ev.At, func() {
				n := c.Net.CapturedFrames()
				if n == 0 {
					return
				}
				_ = c.Net.InjectReplay(ev.Index % n)
			})
		case KindSlowNode:
			c.Sim.At(ev.At, func() { _ = c.Net.SetSlowNode(ev.Target, ev.Size) })
			c.Sim.At(ev.Until, func() { _ = c.Net.SetSlowNode(ev.Target, 1) })
		case KindLinkFault:
			c.Sim.At(ev.At, func() { _ = c.Net.SetLinkFaults(ev.From, ev.Target, ev.Drop, ev.Dup, ev.Jitter) })
			c.Sim.At(ev.Until, func() { _ = c.Net.SetLinkFaults(ev.From, ev.Target, 0, 0, 0) })
		case KindFlap:
			// SetFlapping self-heals: the link's final toggle at Until
			// leaves it open.
			c.Sim.At(ev.At, func() { _ = c.Net.SetFlapping(ev.From, ev.Target, ev.Period, ev.Until) })
		case KindFlashCrowd:
			c.Sim.At(ev.At, func() { _ = c.Net.SetSenderSpike(ev.Size) })
			c.Sim.At(ev.Until, func() { _ = c.Net.SetSenderSpike(1) })
			// The crowd itself: Size× the normal sender population, each
			// member casting in a tight rotation far faster than the
			// overload layer's service interval. Bodies are epoch-tagged
			// like all chaos traffic (the overload layer stamps the wire
			// epoch at cast time, so a retried send still carries its
			// original tag and the boundary invariant holds).
			for k := 0; k < ev.Size*spikeCastsPerMult; k++ {
				k := k
				at := ev.At + time.Duration(k)*spikeCastSpacing
				if at > ev.Until {
					break
				}
				from := ids.ProcID(k % sched.N)
				c.Sim.At(at, func() {
					if c.Net.Crashed(from) {
						return
					}
					cast(c, from, uint32(2000+k), fmt.Sprintf("fc%d.m%03d", from, k))
				})
			}
		default:
			return nil, nil, fmt.Errorf("chaos: unknown event kind %v", ev.Kind)
		}
	}

	// Switch requests.
	for _, req := range sched.Switches {
		req := req
		c.Sim.At(req.At, func() { c.Members[req.By].Switch.RequestSwitch() })
	}

	// Background traffic, tagged with the sender's send epoch at fire
	// time so the epoch-boundary invariant can be checked on delivery
	// order. Crashed senders are skipped.
	for i, snd := range sched.Traffic {
		i, snd := i, snd
		c.Sim.At(snd.At, func() {
			if c.Net.Crashed(snd.From) {
				return
			}
			cast(c, snd.From, uint32(i), fmt.Sprintf("s%d.m%03d", snd.From, i))
		})
	}

	// Liveness probes once everything has healed and settled.
	probeAt := sched.Horizon + cfg.Settle
	c.Sim.At(probeAt, func() {
		for p := 0; p < sched.N; p++ {
			if c.Net.Crashed(ids.ProcID(p)) {
				continue
			}
			cast(c, ids.ProcID(p), uint32(1000+p), fmt.Sprintf("probe%d", p))
		}
	})

	// The no-panic invariant: nothing in the stack — decode paths
	// included — may panic on adversarial input. A panic anywhere in the
	// run is converted into an invariant violation with the flight
	// recorder's tail attached, instead of crashing the sweep. So is a
	// run that exceeds eventBudget: a stack that livelocks fails its
	// schedule instead of running the sweep for minutes.
	horizon := probeAt + cfg.Drain
	var overrun error
	halted := capturePanic(func() { overrun = c.Sim.RunUntilBounded(horizon, eventBudget) })
	if halted == "" && overrun != nil {
		halted = fmt.Sprintf("event budget: %v", overrun)
	}
	if halted == "" {
		c.Stop()
	} else {
		_ = capturePanic(c.Stop)
		res.Violations = append(res.Violations, halted)
	}
	res.Events = c.Sim.Executed()
	for _, p := range metrics.Procs() {
		res.Forged += metrics.Count(p, obs.EvForged)
		res.Replayed += metrics.Count(p, obs.EvReplayed)
	}

	if halted == "" {
		for p := 0; p < sched.N; p++ {
			if !c.Net.Crashed(ids.ProcID(p)) {
				res.Live = append(res.Live, ids.ProcID(p))
			}
		}
		tr, err := runTrace(c, res.Live)
		if err != nil {
			return nil, nil, err
		}
		res.Delivered = len(tr)
		for _, p := range res.Live {
			res.Stats.Add(c.Members[p].Switch.Stats())
		}
		res.FinalEpoch = c.Members[res.Live[0]].Switch.Epoch()

		res.Violations = append(res.Violations, checkConverged(c, res.Live)...)
		res.Violations = append(res.Violations, checkDeliveries(tr, res.Live, sched.N)...)
		res.Violations = append(res.Violations, checkBoundedMemory(c, res.Live)...)
		res.Violations = append(res.Violations, checkNoSilentLoss(c, res.Live)...)
		res.Violations = append(res.Violations, checkBoundedDisruption(disrupt)...)
		res.Violations = append(res.Violations, checkEventualReinclusion(c, res.Live)...)
	}
	if res.Failed() {
		res.FlightRecord = flight.Snapshot()
		res.FlightDropped = flight.Dropped()
	}
	res.attachTelemetry(tel, horizon)
	return res, c, nil
}

// telemetryTailWindows is how many of the run's last windows a failing
// result carries as its quick-look snapshot.
const telemetryTailWindows = 5

// attachTelemetry finalizes the run's telemetry at the run horizon and
// moves the series into the result; failing runs also keep the last few
// windows as a tail next to the flight-recorder trace. No-op when
// telemetry was off.
func (r *Result) attachTelemetry(tel *telemetry.Telemetry, end time.Duration) {
	if tel == nil {
		return
	}
	tel.Finish(end)
	r.Windows = tel.Sampler.Windows()
	r.Rounds = tel.Audit.Finalize()
	if r.Failed() && len(r.Windows) > 0 {
		tail := r.Windows
		if len(tail) > telemetryTailWindows {
			tail = tail[len(tail)-telemetryTailWindows:]
		}
		r.TelemetryTail = tail
	}
}

// spikeCastsPerMult and spikeCastSpacing shape the flash crowd: Size×8
// extra casts at a fixed 30µs cadence — far below the overload layer's
// 200µs-per-frame service pace, so the queues genuinely fill.
const (
	spikeCastsPerMult = 8
	spikeCastSpacing  = 30 * time.Microsecond
)

// chaosSessionKey is the fixed group session key of every run: every
// member derives the same epoch keys from it, and the generated forgers
// do not hold it.
var chaosSessionKey = []byte("chaos harness group session key")

// replayCaptureMax bounds the adversary tap's buffer per run.
const replayCaptureMax = 512

// adversary is the sender every forged message names, outside any group
// the generator builds, so a forged delivery fails property.Integrity. 63
// is the largest ProcID whose zig-zag varint is one byte, as a member's is.
const adversary ids.ProcID = 63

// forgedFrame crafts the wire bytes of a KindForge event: a
// syntactically valid protocol frame — mux header, FIFO cast, epoch
// tag, well-formed application message from the adversary — sealed
// under a key derived from a guessed session secret. Everything about it
// parses; only the MAC cannot verify.
func forgedFrame(ev Event) []byte {
	app := proto.AppMsg{
		ID:     proto.MakeMsgID(ev.From, uint32(40000+ev.Size)),
		Sender: adversary,
		Body:   []byte(fmt.Sprintf("e%d-FORGED.%d", ev.Epoch, ev.Size)),
	}
	e := wire.NewEncoder(16)
	e.Channel(ids.ProtocolChannel(int(ev.Epoch % 2)))
	e.U8(1) // FIFO cast
	e.Uvarint(uint64(40000 + ev.Size))
	e.Uvarint(ev.Epoch)
	inner := e.Prepend(app.Encode())
	return wire.SealAuth(wire.DeriveEpochKey([]byte("attacker guessed key"), ev.Epoch), ev.Epoch, inner)
}

// capturePanic runs fn and renders a recovered panic as an invariant
// violation string ("" when fn returns normally).
func capturePanic(fn func()) (violation string) {
	defer func() {
		if r := recover(); r != nil {
			violation = fmt.Sprintf("panic: %v", r)
		}
	}()
	fn()
	return ""
}

// cast multicasts an epoch-tagged application message from p.
func cast(c *swtest.SwitchedCluster, p ids.ProcID, uniq uint32, body string) {
	sw := c.Members[p].Switch
	m := proto.AppMsg{
		ID:     proto.MakeMsgID(p, uniq),
		Sender: p,
		Body:   []byte(fmt.Sprintf("e%d-%s", sw.SendEpoch(), body)),
	}
	_ = sw.Cast(m.Encode())
}

// othersOf lists every member except cut.
func othersOf(n int, cut ids.ProcID) []ids.ProcID {
	var out []ids.ProcID
	for p := 0; p < n; p++ {
		if ids.ProcID(p) != cut {
			out = append(out, ids.ProcID(p))
		}
	}
	return out
}
