package switching

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fd"
)

// AdaptiveConfig tunes the gray-failure detector extensions enabled by
// RecoveryConfig.Adaptive. Two mechanisms layer over the fixed
// heartbeat detector:
//
//   - *Graded suspicion* (phi-accrual style, deterministic): each
//     member tracks per-peer heartbeat inter-arrival statistics over
//     the last windowSize samples and, once it has minSamples, raises a
//     suspicion when the current silence, scaled against the peer's
//     observed mean inter-arrival, crosses RaiseLevel. The level is
//     integer-scaled (obs.SuspicionScale) so sweeps stay byte-identical
//     on any worker count.
//
//   - *Flap damping* (BGP style): a peer whose suspicion clears and
//     re-fires repeatedly accrues flapPenalty per flap. At suppressAt
//     the peer enters degraded mode — skipped in ring rotation without
//     a token regeneration, and its further suspicion transitions no
//     longer abort switch rounds. The penalty halves every HalfLife;
//     at or below reuseAt the peer is cleanly re-included.
//
// Both fields default from the detector's heartbeat interval; the zero
// value is a working configuration.
type AdaptiveConfig struct {
	// RaiseLevel is the integer-scaled suspicion threshold: suspicion
	// fires when elapsed×obs.SuspicionScale/mean ≥ RaiseLevel.
	// Defaults to 5×obs.SuspicionScale — for a steady heartbeat stream
	// this matches the fixed detector's 5×Interval timeout, so true
	// crashes are detected at equal latency.
	RaiseLevel int64
	// HalfLife is the penalty decay half-life. Defaults to 10× the
	// detector's heartbeat interval.
	HalfLife time.Duration
}

// The fixed parameters of graded suspicion and flap damping.
const (
	// windowSize is how many recent inter-arrival samples feed each
	// peer's mean.
	windowSize = 8
	// minSamples is how many samples a peer must have before graded
	// suspicion can fire (cold peers fall back to the fixed detector).
	minSamples = 3
	// flapPenalty is charged each time a suspicion of the peer clears
	// (one completed flap).
	flapPenalty = 1000
	// suppressAt is the accumulated penalty at which the peer enters
	// degraded mode: the third flap within a few half-lives.
	suppressAt = 2500
	// reuseAt is the decayed penalty at or below which a degraded peer
	// is re-included. It is below suppressAt.
	reuseAt = 1000
)

// Validate checks the adaptive configuration.
func (c AdaptiveConfig) Validate() error {
	if c.RaiseLevel < 0 {
		return fmt.Errorf("switching: negative adaptive threshold")
	}
	if c.HalfLife < 0 {
		return fmt.Errorf("switching: negative adaptive half-life")
	}
	return nil
}

// withDefaults resolves zero fields against the detector's heartbeat
// interval.
func (c AdaptiveConfig) withDefaults(interval time.Duration) AdaptiveConfig {
	if c.RaiseLevel == 0 {
		c.RaiseLevel = 5 * obs.SuspicionScale
	}
	if c.HalfLife == 0 {
		c.HalfLife = 10 * interval
	}
	return c
}

// peerStat is one peer's adaptive-detector state at one member.
type peerStat struct {
	// samples is a ring buffer of inter-arrival durations (ns).
	samples []int64
	idx     int
	count   int
	sum     int64
	// lastSeen/seen track the most recent heartbeat.
	lastSeen time.Duration
	seen     bool
	// suspicious is the graded-suspicion edge (1:1 with
	// EvSuspicionRaise / EvSuspicionClear).
	suspicious bool
	// flaps counts completed suspect→restore cycles.
	flaps int
	// penalty is the flap-damping accumulator as of penaltyAt; the
	// current value decays by one half per HalfLife since then.
	penalty   int64
	penaltyAt time.Duration
	// damped marks degraded mode: skipped in ring rotation, suspicion
	// transitions ignored, until the penalty decays to reuseAt.
	damped bool
}

// adaptive is one member's gray-failure layer: graded suspicion plus
// flap damping, feeding the recovery ring arithmetic.
type adaptive struct {
	r        *recovery
	s        *Switch
	cfg      AdaptiveConfig
	interval time.Duration
	peers    map[ids.ProcID]*peerStat
}

// newAdaptive builds the layer and starts its periodic suspicion check
// (one check per heartbeat interval, like the fixed detector's).
func newAdaptive(r *recovery, cfg AdaptiveConfig, dcfg fd.Config) *adaptive {
	interval := dcfg.Interval
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	a := &adaptive{
		r:        r,
		s:        r.s,
		cfg:      cfg.withDefaults(interval),
		interval: interval,
		peers:    make(map[ids.ProcID]*peerStat),
	}
	a.tick()
	return a
}

func (a *adaptive) stat(p ids.ProcID) *peerStat {
	ps := a.peers[p]
	if ps == nil {
		ps = &peerStat{samples: make([]int64, windowSize)}
		a.peers[p] = ps
	}
	return ps
}

// onHeartbeat feeds one liveness observation into p's inter-arrival
// window (wired to the detector's OnHeartbeat hook).
func (a *adaptive) onHeartbeat(p ids.ProcID) {
	now := a.s.env.Now()
	ps := a.stat(p)
	if ps.seen {
		d := int64(now - ps.lastSeen)
		if d > 0 {
			a.push(ps, d)
		}
	}
	ps.lastSeen, ps.seen = now, true
}

func (a *adaptive) push(ps *peerStat, d int64) {
	if ps.count == len(ps.samples) {
		ps.sum -= ps.samples[ps.idx]
	} else {
		ps.count++
	}
	ps.samples[ps.idx] = d
	ps.sum += d
	ps.idx = (ps.idx + 1) % len(ps.samples)
}

// mean returns p's mean inter-arrival in ns (0 with no samples).
func (ps *peerStat) mean() int64 {
	if ps.count == 0 {
		return 0
	}
	return ps.sum / int64(ps.count)
}

// tick starts the periodic suspicion check on one re-armed timer.
func (a *adaptive) tick() {
	var t proto.Timer
	t = a.s.env.After(a.interval, func() {
		if a.s.stopped {
			return
		}
		a.check()
		t.Reset(a.interval)
	})
}

// check raises graded suspicion on peers whose silence has grown
// beyond RaiseLevel× their observed mean inter-arrival. Members are
// visited in ring order, so the check is deterministic.
func (a *adaptive) check() {
	now := a.s.env.Now()
	self := a.s.env.Self()
	for _, p := range a.s.members {
		if p == self {
			continue
		}
		ps := a.peers[p]
		if ps == nil || !ps.seen || ps.count < minSamples || ps.suspicious {
			continue
		}
		if a.r.det.Suspected(p) {
			// The fixed detector got there first (or a quarantine did);
			// nothing graded to add.
			continue
		}
		mean := ps.mean()
		if mean <= 0 {
			continue
		}
		level := int64(now-ps.lastSeen) * obs.SuspicionScale / mean
		if level < a.cfg.RaiseLevel {
			continue
		}
		ps.suspicious = true
		a.s.emit(obs.SuspicionRaise(now, self, p, level))
		// Escalate into the fixed detector so ring arithmetic, round
		// aborts, and the suspect gauge all see one suspicion state.
		a.r.det.ForceSuspect(p)
	}
}

// onRestore handles a suspicion clearing (wired to the detector's
// OnRestore hook): it closes any graded-suspicion edge and charges the
// flap-damping penalty for the completed flap.
func (a *adaptive) onRestore(p ids.ProcID) {
	now := a.s.env.Now()
	self := a.s.env.Self()
	ps := a.stat(p)
	if ps.suspicious {
		ps.suspicious = false
		a.s.emit(obs.SuspicionClear(now, self, p))
	}
	ps.flaps++
	ps.penalty = a.decayed(ps, now) + flapPenalty
	ps.penaltyAt = now
	a.s.emit(obs.FlapPenalty(now, self, p, ps.penalty, ps.flaps))
	if !ps.damped && ps.penalty >= suppressAt {
		ps.damped = true
		a.armReinclude(p)
	}
}

// decayed returns p's penalty at the given time: one halving per
// HalfLife elapsed since the last charge.
func (a *adaptive) decayed(ps *peerStat, now time.Duration) int64 {
	if ps.penalty == 0 {
		return 0
	}
	k := (now - ps.penaltyAt) / a.cfg.HalfLife
	if k >= 63 {
		return 0
	}
	return ps.penalty >> uint(k)
}

// armReinclude polls the penalty decay once per half-life while p is
// damped, re-including p as soon as the penalty reaches reuseAt and p
// is no longer suspected.
func (a *adaptive) armReinclude(p ids.ProcID) {
	a.s.env.After(a.cfg.HalfLife, func() {
		if a.s.stopped {
			return
		}
		ps := a.peers[p]
		if ps == nil || !ps.damped {
			return
		}
		now := a.s.env.Now()
		if pen := a.decayed(ps, now); pen <= reuseAt && !a.r.det.Suspected(p) {
			ps.damped = false
			ps.penalty, ps.penaltyAt = pen, now
			a.s.emit(obs.Reinclude(now, a.s.env.Self(), p, pen))
			return
		}
		a.armReinclude(p)
	})
}

// isDamped reports whether p is in degraded mode at this member.
func (a *adaptive) isDamped(p ids.ProcID) bool {
	ps := a.peers[p]
	return ps != nil && ps.damped
}

// noteSkip records one degraded-mode bypass of p in ring rotation.
func (a *adaptive) noteSkip(p ids.ProcID) {
	a.s.emit(obs.DegradedSkip(a.s.env.Now(), a.s.env.Self(), p))
}
