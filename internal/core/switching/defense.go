package switching

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// DefenseConfig enables the adversarial-input hardening of the
// switching stack. The §2 protocol (like the Horus stacks it models)
// assumes a benign network; with Defense set, every transport packet is
// wrapped in wire's authenticated envelope on egress and verified on
// ingress, so forgery, bit rot, truncation, and cross-version garbage
// are detected at the trust boundary — below every protocol header — and
// dropped before they can reach protocol state. A rejected frame looks
// like a loss to the stack above, which the FIFO layer's retransmission
// already repairs, so corruption degrades into latency rather than
// wedges or garbled deliveries.
//
// Nil Defense is PaperExact's plain wire format: no envelope, no
// per-packet overhead.
type DefenseConfig struct {
	// QuarantineThreshold is how many malformed messages apparently
	// from one peer this member tolerates before raising a suspicion
	// against it instead of wedging on its garbage. Required (> 0).
	// Authentication failures advance the same per-peer count.
	QuarantineThreshold int
	// Auth keys the envelope: frames are MACed under a per-epoch key
	// derived from the group session key. Required — there is one
	// envelope, and it is authenticated. See AuthConfig.
	Auth *AuthConfig
}

// AuthConfig configures the authenticated-session mode of the
// defensive ingress. Every member of a group must share the same
// SessionKey (distribution is out of scope — in a deployment it would
// come from a group key agreement à la mpENC; here the harness hands it
// out). The per-frame MAC key is wire.DeriveEpochKey(SessionKey,
// epoch), rolled atomically with the switch protocol's send-epoch
// advance, which makes the epoch counter part of what a frame
// authenticates: a frame captured in epoch N fails verification once
// the group's grace window for N has closed, so cross-epoch replay is
// rejected even though each individual frame is genuine.
type AuthConfig struct {
	// SessionKey is the group session secret. Required (non-empty).
	SessionKey []byte
}

// authGraceIntervals is the grace window in token intervals: how long
// after this member rolls its send epoch it keeps accepting frames
// sealed under the previous epoch's key — covering legitimately
// in-flight old-epoch frames during a switch round. Beyond the window,
// previous-epoch frames are rejected as replays. Same-epoch and
// newer-epoch frames are always accepted when their MAC verifies (an
// attacker without the session key can forge neither).
const authGraceIntervals = 10

// Validate checks the defense configuration.
func (c DefenseConfig) Validate() error {
	if c.QuarantineThreshold <= 0 {
		return fmt.Errorf("switching: quarantine threshold %d must be positive", c.QuarantineThreshold)
	}
	if c.Auth == nil {
		return fmt.Errorf("switching: Defense requires Auth (the envelope is authenticated; start from Hardened)")
	}
	if len(c.Auth.SessionKey) == 0 {
		return fmt.Errorf("switching: auth mode requires a non-empty session key")
	}
	return nil
}

// countMalformed records a defensively-dropped message apparently from
// src and, with Defense enabled, advances src toward quarantine. It is
// called from every rejection site above the envelope — mux, token
// decode/range and epoch-header failures.
func (s *Switch) countMalformed(src ids.ProcID, reason int64) {
	s.emit(obs.MalformedDrop(s.env.Now(), s.env.Self(), src, reason))
	s.noteDefenseDrop(src)
}

// countAuthFailed records an arrival that failed authentication —
// structurally broken envelope, bad MAC, or retired epoch — dropped
// before any state mutation. Auth failures advance the same per-peer
// quarantine progress as malformed drops: a peer spraying forgeries is
// routed around exactly like one spraying garbage.
func (s *Switch) countAuthFailed(src ids.ProcID, epoch uint64, reason int64) {
	s.emit(obs.AuthFail(s.env.Now(), s.env.Self(), src, epoch, reason))
	s.noteDefenseDrop(src)
}

// noteDefenseDrop advances src's defensive-drop count (malformed and
// auth-failed alike) toward quarantine. The count crosses the threshold
// exactly once, so the suspicion fires exactly once per peer.
func (s *Switch) noteDefenseDrop(src ids.ProcID) {
	d := s.cfg.Defense
	if d == nil {
		return
	}
	if s.droppedBy == nil {
		s.droppedBy = make(map[ids.ProcID]uint64)
	}
	s.droppedBy[src]++
	if s.droppedBy[src] != uint64(d.QuarantineThreshold) {
		return
	}
	// Crossing the threshold raises a suspicion instead of wedging:
	// the ring routes around the peer exactly as it would around a
	// crash, and a later healthy heartbeat restores it.
	s.emit(obs.Quarantine(s.env.Now(), s.env.Self(), src, d.QuarantineThreshold))
	if s.rec != nil {
		s.rec.det.ForceSuspect(src)
	}
}

// authTransport wraps the real transport, sealing every outgoing packet
// in the authenticated envelope under the owner's current send-epoch
// key. It sits below the multiplex, so one MAC covers the mux header
// and everything above it. Because it consults the Switch at seal time,
// FIFO retransmissions — which re-traverse the transport — are re-
// sealed under the key current at retransmission, keeping repair
// traffic inside the receiver's acceptance window.
type authTransport struct {
	s    *Switch
	down proto.Down
	// spare holds the buffers the sealed frames are built in.
	spare wire.Spares
}

func (t *authTransport) Cast(payload []byte) error {
	pkt := t.seal(payload)
	err := t.down.Cast(pkt)
	t.spare.Put(pkt)
	return err
}

func (t *authTransport) Send(dst ids.ProcID, payload []byte) error {
	pkt := t.seal(payload)
	err := t.down.Send(dst, pkt)
	t.spare.Put(pkt)
	return err
}

// seal builds payload's sealed frame in a buffer from the spares.
func (t *authTransport) seal(payload []byte) []byte {
	return t.s.sealCurrentTo(t.spare.Get(wire.MaxAuthOverhead+len(payload)), payload)
}

// sealCurrentTo appends payload sealed under the current send epoch's
// key — or the newest authenticated epoch this member has witnessed,
// when that is ahead (a lagging member sealing under its retired epoch
// would be rejected by everyone who completed the switch, wedging it
// out of the group; see maxAuthEpoch).
//
// The sealer of that epoch is kept at hand in s.sealing. When the epoch
// moves on, the new sealer inherits the old one's memo of sealed
// payloads, emptied, with its copy buffers: the old one seals nothing
// more, and only its own loop-backs still in flight would have found
// their payloads there.
func (s *Switch) sealCurrentTo(dst, payload []byte) []byte {
	epoch := max(s.sendEpoch, s.maxAuthEpoch)
	if s.sealing == nil || s.sealing.Epoch() != epoch {
		a := s.epochSealer(epoch)
		if s.sealing != nil {
			a.Inherit(s.sealing)
		}
		s.sealing = a
	}
	return s.sealing.SealTo(dst, payload)
}

// epochSealer returns the sealer (derived key + keyed HMAC +
// precomputed header) for an epoch this member seals under, keeping it
// in the schedule. The schedule is pruned as epochs retire (see
// rollEpochKey).
func (s *Switch) epochSealer(epoch uint64) *wire.AuthSealer {
	a, kept := s.sealerFor(epoch)
	if !kept {
		s.keepSealer(a)
	}
	return a
}

// sealerFor returns the kept sealer for epoch — the sealing one first,
// the epoch most frames arrive under — or else the probe: the
// one sealer held outside the schedule, derived to check frames that
// claim an epoch nothing has been sealed or verified under yet. A claim
// is unbounded above, so an unverified epoch must not enter the
// schedule; the probe is reused while claims name its epoch, so a run
// of forgeries derives their key once.
func (s *Switch) sealerFor(epoch uint64) (a *wire.AuthSealer, kept bool) {
	if s.sealing != nil && s.sealing.Epoch() == epoch {
		return s.sealing, true
	}
	if a, kept = s.epochSealers[epoch]; kept {
		return a, true
	}
	if s.probe == nil || s.probe.Epoch() != epoch {
		s.probe = wire.NewAuthSealer(wire.DeriveEpochKey(s.cfg.Defense.Auth.SessionKey, epoch), epoch)
	}
	return s.probe, false
}

// keepSealer adds a to the schedule, taking it out of the probe slot.
func (s *Switch) keepSealer(a *wire.AuthSealer) {
	if s.epochSealers == nil {
		s.epochSealers = make(map[uint64]*wire.AuthSealer)
	}
	s.epochSealers[a.Epoch()] = a
	if s.probe == a {
		s.probe = nil
	}
}

// rollEpochKey records the moment the send epoch advanced — opening the
// grace window for the previous epoch — and prunes retired sealers from
// the schedule. Called from every site that advances sendEpoch, so the
// key schedule rolls atomically with the switch round.
func (s *Switch) rollEpochKey() {
	if s.cfg.Defense == nil {
		return
	}
	s.keyRolledAt = s.env.Now()
	for e := range s.epochSealers {
		if e+1 < s.sendEpoch {
			delete(s.epochSealers, e)
		}
	}
}

// epochAcceptable implements the receive-side acceptance window for
// authenticated frames. Frames at or ahead of the local send epoch are
// always acceptable (an attacker without the session key cannot forge
// any epoch, and from-ahead frames are how lagging members catch up);
// the previous epoch is acceptable only while the grace window that
// opened at the local key roll is still running. Everything older is a
// cross-epoch replay.
func (s *Switch) epochAcceptable(epoch uint64) bool {
	if epoch >= s.sendEpoch {
		return true
	}
	if epoch+1 == s.sendEpoch {
		return s.env.Now()-s.keyRolledAt <= authGraceIntervals*s.cfg.TokenInterval
	}
	return false
}

// recvAuth verifies and strips the authenticated envelope, or counts
// and drops. Returns the inner payload and true on acceptance. The
// envelope's header is parsed once: the split form names the epoch that
// picks the sealer, and is what the sealer opens.
func (s *Switch) recvAuth(src ids.ProcID, pkt []byte) ([]byte, bool) {
	f, err := wire.SplitAuth(pkt)
	epoch := f.Epoch
	if err != nil {
		s.countAuthFailed(src, 0, obs.AuthBadFrame)
		return nil, false
	}
	// Reject retired epochs before verifying: the stale check needs no
	// crypto, and skipping verification means a replayed frame's key is
	// never even derived.
	if !s.epochAcceptable(epoch) {
		s.countAuthFailed(src, epoch, obs.AuthStaleEpoch)
		return nil, false
	}
	// A sealer enters the schedule only once a frame verifies under
	// it: forgeries naming ever-new epochs must not grow it.
	a, kept := s.sealerFor(epoch)
	payload, err := a.OpenFrame(f)
	if err != nil {
		s.countAuthFailed(src, epoch, obs.AuthBadMAC)
		return nil, false
	}
	if !kept {
		s.keepSealer(a)
	}
	if epoch > s.maxAuthEpoch {
		// The group provably rolled past this member's send epoch: flush
		// any batch accumulated under the old sealing epoch before egress
		// starts sealing under the new one.
		if s.batch != nil {
			s.batch.flush()
		}
		s.maxAuthEpoch = epoch
	}
	return payload, true
}
