package switching

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fd"
)

// detectorChannel is the failure detector's private multiplex channel.
// It reuses the value of ids.AppChannel, which the switching stack never
// multiplexes (sub-protocols use ids.ProtocolChannel).
const detectorChannel = ids.AppChannel

// RecoveryConfig enables the self-healing extensions to the token-ring
// SP: a heartbeat failure detector whose suspects are skipped in ring
// arithmetic, a wedge detector that regenerates a lost token, and
// abort-and-retry of a switch round whose member set changed mid-flight.
//
// The paper's §2 protocol assumes crash-free members — a single
// crash-stop failure silently wedges its token ring (the E10 boundary).
// With recovery enabled the ring repairs itself instead: every member
// arms a timeout whenever it sees the token, and a member whose timeout
// expires regenerates the token one generation higher, seeded with the
// highest epoch it has observed. Stale tokens of older generations are
// absorbed wherever they surface, so the ring converges back to exactly
// one token.
//
// Assumptions and limits (see DESIGN.md E10/E13): suspicion must be
// eventually accurate. A falsely suspected member is routed around; when
// it rejoins it fast-forwards to the ring's epoch, and any of its
// messages still draining in an epoch the ring has already closed are
// dropped as stale at the survivors — the classic non-atomic boundary
// that only a full view-synchronous membership (internal/core/viewswitch)
// removes.
type RecoveryConfig struct {
	// Detector tunes the heartbeat failure detector. The zero value
	// uses fd defaults (20ms interval, 5x timeout).
	Detector fd.Config
	// Adaptive enables the gray-failure detector extensions: graded
	// phi-accrual-style suspicion over per-peer heartbeat inter-arrival
	// statistics, and BGP-style flap damping that routes repeatedly
	// flapping peers around in degraded mode. Nil keeps the
	// fixed-timeout detector alone (E20's comparison arm).
	Adaptive *AdaptiveConfig
}

// Validate checks the recovery configuration.
func (c RecoveryConfig) Validate() error {
	if c.Adaptive != nil {
		return c.Adaptive.Validate()
	}
	return nil
}

// The wedge detector's timing, in token intervals.
const (
	// idleWedgeRotations is the base token-silence timeout while the
	// ring is idle (NORMAL rotation), in full rotations: one rotation
	// plus slack.
	idleWedgeRotations = 2
	// roundWedgeIntervals is the base token-silence timeout while a
	// switch round (PREPARE/SWITCH/FLUSH) is in flight, in token
	// intervals. Rounds pass the token without holding it, so this is
	// much tighter than the idle timeout.
	roundWedgeIntervals = 3
	// maxBackoffShift caps the exponential backoff applied to the
	// timeouts after consecutive regenerations that produced no token
	// sighting (timeout << shift, at most 64x). Regardless of the
	// shift, the backed-off timeout saturates at maxRecoveryBackoff.
	maxBackoffShift = 6
)

// maxRecoveryBackoff is the ceiling of the exponential wedge backoff:
// however large the strike shift or the base timeout, the backed-off
// wait never exceeds this (and in particular never overflows
// time.Duration into a negative — that is, instantly firing — timer).
const maxRecoveryBackoff = time.Minute

// backoffTimeout returns base << shift saturated at maxRecoveryBackoff.
func backoffTimeout(base time.Duration, shift int) time.Duration {
	if base >= maxRecoveryBackoff {
		return maxRecoveryBackoff
	}
	if shift >= 63 || base > maxRecoveryBackoff>>uint(shift) {
		return maxRecoveryBackoff
	}
	return base << uint(shift)
}

// recovery is one member's wedge detector and ring-repair state.
type recovery struct {
	s   *Switch
	det *fd.Detector
	// ad is the optional gray-failure layer (nil with the fixed
	// detector).
	ad *adaptive

	// gen/origin are the watermark of the newest token lineage seen.
	// Tokens ordered before the watermark are stale duplicates and are
	// dropped on arrival (Switch.classify).
	gen    uint64
	origin ids.ProcID
	// lastMode is the mode of the last token seen or passed; it selects
	// the wedge timeout (rounds rotate much faster than idle NORMAL).
	lastMode Mode
	// strikes counts consecutive wedge firings with no token sighting
	// in between; it drives the exponential backoff.
	strikes int
	timer   proto.Timer
	// idleTimeout and roundTimeout are the base wedge timeouts for
	// NORMAL rotation and for a switch round in flight.
	idleTimeout, roundTimeout time.Duration
}

// newRecovery wires the failure detector onto the switch's multiplex and
// arms the initial wedge timer.
func newRecovery(s *Switch, cfg RecoveryConfig) (*recovery, error) {
	r := &recovery{
		s:            s,
		lastMode:     ModeNormal,
		idleTimeout:  idleWedgeRotations * time.Duration(s.env.Ring().Size()) * s.cfg.TokenInterval,
		roundTimeout: roundWedgeIntervals * s.cfg.TokenInterval,
	}
	dcfg := cfg.Detector
	userSuspect := dcfg.OnSuspect
	dcfg.OnSuspect = func(p ids.ProcID) {
		// The suspicion is recorded before any regeneration it triggers,
		// so every EvTokenRegen in a trace is preceded by the
		// EvWedgeTimeout or EvSuspect that caused it.
		s.emit(obs.Suspect(s.env.Now(), s.env.Self(), p))
		r.onSuspect(p)
		if userSuspect != nil {
			userSuspect(p)
		}
	}
	userRestore := dcfg.OnRestore
	dcfg.OnRestore = func(p ids.ProcID) {
		// The falling edge paired with EvSuspect, so suspect gauges can
		// drop when a peer recovers.
		s.emit(obs.SuspectCleared(s.env.Now(), s.env.Self(), p))
		if r.ad != nil {
			r.ad.onRestore(p)
		}
		if userRestore != nil {
			userRestore(p)
		}
	}
	if cfg.Adaptive != nil {
		r.ad = newAdaptive(r, *cfg.Adaptive, dcfg)
		userBeat := dcfg.OnHeartbeat
		dcfg.OnHeartbeat = func(p ids.ProcID) {
			r.ad.onHeartbeat(p)
			if userBeat != nil {
				userBeat(p)
			}
		}
	}
	det := fd.New(dcfg)
	if err := det.Init(s.env, s.mux.Port(detectorChannel)); err != nil {
		return nil, fmt.Errorf("switching: recovery detector: %w", err)
	}
	s.mux.Bind(detectorChannel, proto.UpFunc(det.Recv))
	r.det = det
	r.arm()
	return r, nil
}

func (r *recovery) stop() {
	r.det.Stop()
	if r.timer != nil {
		r.timer.Stop()
	}
}

// Detector exposes the recovery failure detector (nil when recovery is
// disabled) for tests and management tools.
func (s *Switch) Detector() *fd.Detector {
	if s.rec == nil {
		return nil
	}
	return s.rec.det
}

// Damped reports whether p is in flap-damping degraded mode at this
// member — skipped in ring rotation, its suspicion transitions ignored.
// Always false without Recovery.Adaptive.
func (s *Switch) Damped(p ids.ProcID) bool {
	return s.rec != nil && s.rec.ad != nil && s.rec.ad.isDamped(p)
}

// supersedes reports whether token t is ordered at or after the
// watermark: a newer generation always wins; within a generation the
// smaller origin wins, so concurrent regenerations converge to exactly
// one surviving token.
func (r *recovery) supersedes(t Token) bool {
	if t.Gen != r.gen {
		return t.Gen > r.gen
	}
	return t.Origin <= r.origin
}

// admit records the sighting of a token classify found current or
// future: it advances the watermark, relieves an initiator whose round
// a newer lineage superseded, and re-arms the wedge timer.
//
// A damped peer's tokens are deliberately NOT refused. A flapping
// member that has been routed around keeps wedge-timing-out and
// regenerating (its backoff doubles, so the stream is bounded), and an
// early design refused those lineages at ingress — but damping state
// is per-observer and converges gradually, so a lineage admitted by a
// not-yet-damped member died at the next damped hop, losing the token
// inside the healthy group. Accepting the lineage costs one watermark
// bump; refusing it cost a group-wide wedge.
func (r *recovery) admit(t Token) {
	s := r.s
	advanced := t.Gen > r.gen || t.Origin < r.origin
	r.gen, r.origin = t.Gen, t.Origin
	// An initiator whose round was superseded by another member's
	// regeneration relinquishes the round; if it is still draining it
	// will rejoin the retry as an ordinary participant.
	if advanced && s.initiating && t.Initiator != s.env.Self() {
		s.initiating = false
		s.emit(obs.SwitchAbort(s.env.Now(), s.env.Self(), s.deliverEpoch, r.gen))
	}
	r.lastMode = t.Mode
	r.strikes = 0
	r.arm()
}

// skipped reports whether p is routed around in ring arithmetic:
// suspected by the failure detector, or damped by the flap-damping
// layer (degraded mode).
func (r *recovery) skipped(p ids.ProcID) bool {
	if r.det.Suspected(p) {
		return true
	}
	return r.ad != nil && r.ad.isDamped(p)
}

// successor returns the next unskipped member after self on the ring,
// or self when every other member is skipped (singleton behaviour).
// Damped members are skipped without a token regeneration — the
// degraded-mode ring repair — and each such bypass is evented.
func (r *recovery) successor(self ids.ProcID) ids.ProcID {
	ring := r.s.env.Ring()
	next := self
	for i := 0; i < ring.Size(); i++ {
		succ, err := ring.Successor(next)
		if err != nil {
			return self
		}
		if succ == self {
			return succ
		}
		if !r.det.Suspected(succ) {
			if r.ad == nil || !r.ad.isDamped(succ) {
				return succ
			}
			r.ad.noteSkip(succ)
		}
		next = succ
	}
	return self
}

// livePosition returns this member's rank among unskipped members in
// ring order — the stagger that makes concurrent regenerations unlikely.
func (r *recovery) livePosition() int {
	pos := 0
	for _, p := range r.s.members {
		if p == r.s.env.Self() {
			return pos
		}
		if !r.skipped(p) {
			pos++
		}
	}
	return pos
}

// timeout returns the current wedge timeout: the mode-dependent base,
// doubled per strike (saturating at maxRecoveryBackoff), plus the
// live-position stagger.
func (r *recovery) timeout() time.Duration {
	base := r.idleTimeout
	if r.lastMode != ModeNormal || r.s.Switching() {
		base = r.roundTimeout
	}
	return backoffTimeout(base, r.strikes) + time.Duration(r.livePosition())*r.s.cfg.TokenInterval
}

// arm (re)starts the wedge timer: one handle, re-armed on every token
// sighting.
func (r *recovery) arm() {
	if r.timer == nil {
		r.timer = r.s.env.After(r.timeout(), r.onWedge)
		return
	}
	r.timer.Reset(r.timeout())
}

// onSuspect aborts and retries an in-flight switch round when the member
// set changes mid-round. Only the lowest-ranked live member reacts — the
// others' generation filters absorb the superseded round's tokens. A
// damped peer is already routed around, so its suspicion transitions
// (the flapping the damping exists to absorb) must not abort rounds.
func (r *recovery) onSuspect(p ids.ProcID) {
	s := r.s
	if s.stopped {
		return
	}
	if r.ad != nil && r.ad.isDamped(p) {
		return
	}
	if !s.Switching() || r.livePosition() != 0 {
		return
	}
	r.regenerate()
}

// onWedge fires when no token has been sighted for the timeout: the
// token is presumed lost (its holder crashed, or the round it belongs to
// stalled on a dead member's messages). Regenerate it.
func (r *recovery) onWedge() {
	s := r.s
	if s.stopped {
		return
	}
	if r.strikes < maxBackoffShift {
		r.strikes++
	}
	s.emit(obs.WedgeTimeout(s.env.Now(), s.env.Self(), r.strikes))
	r.regenerate()
}

// regenerate creates a replacement token one generation up. An idle
// member emits a NORMAL token at its own epoch — every token it admitted
// caught it up to the ring's — and a member caught mid-switch re-runs the
// round from PREPARE so the vector is rebuilt over the live membership
// ("abort and retry"). A FLUSH it holds now belongs to a superseded
// lineage and dies when released (Switch.releaseFlush).
func (r *recovery) regenerate() {
	s := r.s
	r.gen++
	r.origin = s.env.Self()
	s.emit(obs.TokenRegen(s.env.Now(), s.env.Self(), s.deliverEpoch, r.gen))
	if s.Switching() {
		if s.initiating {
			s.emit(obs.SwitchAbort(s.env.Now(), s.env.Self(), s.deliverEpoch, r.gen))
		}
		s.initiate(r.gen, s.env.Self())
		r.arm()
		return
	}
	r.lastMode = ModeNormal
	s.onToken(Token{
		Mode:      ModeNormal,
		Epoch:     s.deliverEpoch,
		Initiator: s.env.Self(),
		Gen:       r.gen,
		Origin:    s.env.Self(),
	})
	r.arm()
}
