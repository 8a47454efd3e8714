package switching

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/wire"
)

// ProtocolFactory builds one sub-protocol's stack (layers, top first)
// for a member. Each factory gets its own private multiplex channel.
type ProtocolFactory func(env proto.Env) []proto.Layer

// Record describes one completed switch, observed at its initiator.
type Record struct {
	Initiator ids.ProcID
	// Epoch is the protocol epoch the switch closed.
	Epoch uint64
	// Started is when the initiator turned the token to PREPARE;
	// Finished is when the FLUSH token returned. Their difference is
	// the switch overhead discussed in §7 of the paper (~31 ms near
	// the Figure 2 crossover on the paper's testbed).
	Started, Finished time.Duration
	// Gen is the token generation the switch completed under — nonzero
	// when crash recovery regenerated the token at least once before or
	// during this switch.
	Gen uint64
}

// Duration returns the switch's end-to-end duration.
func (r Record) Duration() time.Duration { return r.Finished - r.Started }

// Config configures a Switch.
type Config struct {
	// Protocols are the interchangeable protocols (at least two).
	// Epoch e runs on Protocols[e % len(Protocols)].
	Protocols []ProtocolFactory
	// TokenInterval is how long a member holds a NORMAL token before
	// passing it on — the idle rotation pace. Defaults to 5ms.
	TokenInterval time.Duration
	// OnSwitchComplete, if set, is invoked at the initiator when its
	// FLUSH token returns.
	OnSwitchComplete func(Record)
	// Recovery, when non-nil, enables the self-healing extensions:
	// failure-detector-driven ring repair, wedge detection and token
	// regeneration, and abort-and-retry of switch rounds disrupted by a
	// crash. Nil preserves the paper's crash-free §2 protocol exactly.
	Recovery *RecoveryConfig
	// Defense, when non-nil, enables the adversarial-input hardening:
	// the authenticated envelope around every transport packet,
	// defensive drops of malformed input, and per-peer quarantine. Nil
	// is PaperExact's plain wire format.
	Defense *DefenseConfig
	// Overload, when non-nil, enables the overload-protection layer:
	// bounded per-peer ingress and egress queues, watermark
	// backpressure toward local senders, deterministic load shedding at
	// the hard limits, and seeded retry/backoff for rejected sends. Nil
	// is PaperExact's unbounded message path.
	Overload *OverloadConfig
	// Recorder receives the structured observability events (token
	// lifecycle, phase transitions, epoch advances, recovery actions).
	// Stats counts the same events whether or not a recorder is set,
	// so each counter equals its event type's count in the trace; the
	// obs registry key is "switching/" plus the Stats json tag (pinned
	// by TestStatsCountersMatchEvents). Nil means obs.Nop: the
	// instrumented paths then cost a struct construction, a counter
	// increment and a no-op interface call, nothing more.
	Recorder obs.Recorder
}

// Validate checks the configuration without building anything. New
// validates implicitly; call this to reject a bad configuration early.
func (c Config) Validate() error {
	if len(c.Protocols) < 2 {
		return fmt.Errorf("switching: need at least two protocols, got %d", len(c.Protocols))
	}
	if c.TokenInterval < 0 {
		return fmt.Errorf("switching: negative token interval %v", c.TokenInterval)
	}
	if c.Recovery != nil {
		if err := c.Recovery.Validate(); err != nil {
			return err
		}
	}
	if c.Defense != nil {
		if err := c.Defense.Validate(); err != nil {
			return err
		}
	}
	if c.Overload != nil {
		if err := c.Overload.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats counts switch-layer activity at one member. Each counter is
// the number of events of one type the member emitted (see counter);
// the json tags are the BENCH artifacts' keys and, prefixed with
// "switching/", the obs registry's. Field order is the artifacts' key
// order.
type Stats struct {
	// SwitchesCompleted counts switches this member has completed
	// (locally: delivered all old-epoch messages and moved on).
	SwitchesCompleted uint64 `json:"switches_completed"`
	// Buffered counts new-epoch messages buffered during switches.
	Buffered uint64 `json:"buffered"`
	// StaleDropped counts data that arrived for an already-closed epoch.
	StaleDropped uint64 `json:"stale_dropped"`
	// TokenPasses counts tokens forwarded by this member.
	TokenPasses uint64 `json:"token_passes"`

	// Recovery counters; all zero unless Config.Recovery is set.

	// WedgeTimeouts counts wedge-detector expiries (token presumed
	// lost) at this member.
	WedgeTimeouts uint64 `json:"wedge_timeouts"`
	// TokensRegenerated counts replacement tokens this member created.
	TokensRegenerated uint64 `json:"tokens_regenerated"`
	// SwitchesAborted counts switch rounds this member abandoned or
	// re-ran because the token was lost or the member set changed
	// mid-round.
	SwitchesAborted uint64 `json:"switches_aborted"`
	// ForcedAdvances counts epochs this member adopted from a token
	// after missing the switch round itself (rejoin fast-forward).
	ForcedAdvances uint64 `json:"forced_advances"`

	// Defensive-ingress counters; see Config.Defense. MalformedDropped
	// also counts token/header decode failures when Defense is nil.

	// MalformedDropped counts messages rejected above the envelope
	// without mutating state (mux, token or epoch-header decode failure,
	// out-of-range token field). Envelope failures are AuthFailed.
	MalformedDropped uint64 `json:"malformed_dropped,omitempty"`
	// Quarantines counts peers whose malformed count crossed the
	// quarantine threshold and raised a suspicion.
	Quarantines uint64 `json:"quarantines,omitempty"`
	// AuthFailed counts arrivals the authenticated ingress rejected:
	// forged frames (bad MAC), structurally broken auth envelopes, and
	// cross-epoch replays (retired epoch). Zero unless Defense is set.
	AuthFailed uint64 `json:"auth_failed,omitempty"`

	// Overload counters; all zero unless Config.Overload is set.

	// Shed counts messages dropped at a hard queue limit: ingress
	// frames at a full per-peer queue (drop-newest; each shed event
	// names its peer) and application casts abandoned after the retry
	// budget.
	Shed uint64 `json:"shed,omitempty"`
	// Backpressured counts pause transitions: the egress queue crossed
	// its high watermark and local senders were asked to pause.
	Backpressured uint64 `json:"backpressured,omitempty"`
	// RetriedSends counts retry attempts scheduled for application
	// casts rejected at the egress cap.
	RetriedSends uint64 `json:"retried_sends,omitempty"`

	// Gray-failure counters; all zero unless Recovery.Adaptive is set.

	// SuspicionsRaised counts graded suspicions the adaptive detector
	// raised (heartbeat silence beyond the phi-style threshold).
	SuspicionsRaised uint64 `json:"suspicions_raised,omitempty"`
	// SuspicionsCleared counts graded suspicions that cleared when the
	// peer's heartbeats resumed.
	SuspicionsCleared uint64 `json:"suspicions_cleared,omitempty"`
	// FlapPenalties counts flap-damping penalty charges (one per
	// completed suspect→restore cycle of a peer).
	FlapPenalties uint64 `json:"flap_penalties,omitempty"`
	// DegradedSkips counts ring rotations that bypassed a damped peer
	// without a token regeneration (degraded-mode repair).
	DegradedSkips uint64 `json:"degraded_skips,omitempty"`
	// Reincludes counts damped peers re-included after their penalty
	// decayed.
	Reincludes uint64 `json:"reincludes,omitempty"`
}

// counter returns the field that counts events of type t, or nil for a
// type no field counts. It is the one place the event → counter mapping
// is written.
func (s *Stats) counter(t obs.EventType) *uint64 {
	switch t {
	case obs.EvEpochAdvance:
		return &s.SwitchesCompleted
	case obs.EvBuffered:
		return &s.Buffered
	case obs.EvStaleDrop:
		return &s.StaleDropped
	case obs.EvTokenPass:
		return &s.TokenPasses
	case obs.EvWedgeTimeout:
		return &s.WedgeTimeouts
	case obs.EvTokenRegen:
		return &s.TokensRegenerated
	case obs.EvSwitchAbort:
		return &s.SwitchesAborted
	case obs.EvEpochForced:
		return &s.ForcedAdvances
	case obs.EvMalformedDrop:
		return &s.MalformedDropped
	case obs.EvQuarantine:
		return &s.Quarantines
	case obs.EvAuthFail:
		return &s.AuthFailed
	case obs.EvShed:
		return &s.Shed
	case obs.EvBackpressureOn:
		return &s.Backpressured
	case obs.EvRetrySend:
		return &s.RetriedSends
	case obs.EvSuspicionRaise:
		return &s.SuspicionsRaised
	case obs.EvSuspicionClear:
		return &s.SuspicionsCleared
	case obs.EvFlapPenalty:
		return &s.FlapPenalties
	case obs.EvDegradedSkip:
		return &s.DegradedSkips
	case obs.EvReinclude:
		return &s.Reincludes
	}
	return nil
}

// Add accumulates another member's (or run's) counters into s — the
// aggregation step of every sweep.
func (s *Stats) Add(o Stats) {
	s.SwitchesCompleted += o.SwitchesCompleted
	s.Buffered += o.Buffered
	s.StaleDropped += o.StaleDropped
	s.TokenPasses += o.TokenPasses
	s.WedgeTimeouts += o.WedgeTimeouts
	s.TokensRegenerated += o.TokensRegenerated
	s.SwitchesAborted += o.SwitchesAborted
	s.ForcedAdvances += o.ForcedAdvances
	s.MalformedDropped += o.MalformedDropped
	s.Quarantines += o.Quarantines
	s.AuthFailed += o.AuthFailed
	s.Shed += o.Shed
	s.Backpressured += o.Backpressured
	s.RetriedSends += o.RetriedSends
	s.SuspicionsRaised += o.SuspicionsRaised
	s.SuspicionsCleared += o.SuspicionsCleared
	s.FlapPenalties += o.FlapPenalties
	s.DegradedSkips += o.DegradedSkips
	s.Reincludes += o.Reincludes
}

// Switch is one member's instance of the switching protocol. The
// application talks only to the Switch (the SP is transparent, §1); the
// Switch talks to its sub-protocols over private multiplex channels.
type Switch struct {
	cfg Config
	env proto.Env
	app proto.Up
	mux *Multiplex
	// ring is the group's ring, read once.
	ring *ids.Ring

	ctl    *proto.Stack   // control channel (token transport)
	protos []*proto.Stack // sub-protocol stacks, one per factory

	// sendEpoch is the epoch new application sends go to; deliverEpoch
	// is the epoch currently being delivered. After a PREPARE and until
	// the switch completes, sendEpoch == deliverEpoch + 1.
	sendEpoch    uint64
	deliverEpoch uint64

	// sent counts this member's sends per epoch (the OK(count) value).
	sent map[uint64]uint64
	// recv counts delivered+buffered arrivals per epoch per ring
	// position — compared against the SWITCH token's vector.
	recv map[uint64][]uint64
	// expected is the closing epoch's send-count vector, once known.
	expected []uint64
	// buffer holds arrivals for future epochs until the switch
	// completes ("messages received over this protocol will be
	// buffered rather than delivered", §2): copies, in buffers from
	// spare, which each gets back once its message is delivered. Cast
	// builds its epoch frames in buffers from spare too.
	buffer map[uint64][]bufEntry
	spare  wire.Spares

	// wantSwitch is set by RequestSwitch and consumed when this member
	// next holds a NORMAL token.
	wantSwitch bool
	// initiating marks this member as the initiator of the in-flight
	// switch.
	initiating bool
	started    time.Duration
	// heldFlush is a FLUSH token waiting for local completion.
	heldFlush *Token
	// passed is the last token this member passed on: the round of its
	// lineage the member has acted on (see classify).
	passed Token

	// held is the current token hold (see tokenHold), nil until the
	// first one.
	held    *tokenHold
	stopped bool
	stats   Stats
	records []Record
	// droppedBy counts each peer's malformed and auth-failed drops
	// toward quarantine (allocated lazily; nil unless Config.Defense is
	// set and a drop occurred).
	droppedBy map[ids.ProcID]uint64
	// epochSealers memoizes the per-epoch authenticated sealer — derived
	// key plus cached keyed HMAC — so steady-state sealing and opening
	// allocate nothing. It holds only epochs this member sealed or
	// verified a frame under; probe is the one sealer for a claimed
	// epoch that has not verified yet (see sealerFor).
	epochSealers map[uint64]*wire.AuthSealer
	probe        *wire.AuthSealer
	// sealing is the sealer of the epoch egress was last sealed under
	// (see sealCurrentTo).
	sealing *wire.AuthSealer
	// keyRolledAt is when sendEpoch last advanced — the start of the
	// grace window during which the previous epoch's key is still
	// accepted on ingress.
	keyRolledAt time.Duration
	// maxAuthEpoch is the newest epoch this member has verified a MAC
	// under. A member that missed a switch round (partitioned, say)
	// seals its egress under this instead of its own lagging sendEpoch:
	// the verified MAC is unforgeable evidence the group rolled, and
	// sealing under the retired key would get every frame it sends —
	// heartbeats included — rejected by the advanced majority, leaving
	// it permanently suspected and unable to rejoin.
	maxAuthEpoch uint64
	// obs is Config.Recorder normalized to non-nil (obs.Nop default).
	obs obs.Recorder

	// rec is the crash-recovery state; nil unless Config.Recovery is
	// set, in which case the §2 protocol runs unmodified.
	rec *recovery

	// ovl is the overload-protection state; nil unless Config.Overload
	// is set, in which case the message path is unqueued and unpaced.
	ovl *overload

	// batch is the egress frame batcher; nil unless
	// Config.Overload.BatchMax > 1, in which case every frame is its own
	// wire write.
	batch *batcher
}

type bufEntry struct {
	src     ids.ProcID
	payload []byte
}

// New assembles a Switch for one member over the given transport. Wire
// the node's incoming packets to (*Switch).Recv.
func New(env proto.Env, app proto.Up, transport proto.Down, cfg Config) (*Switch, error) {
	if env == nil || app == nil || transport == nil {
		return nil, fmt.Errorf("switching: nil wiring")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TokenInterval == 0 {
		cfg.TokenInterval = 5 * time.Millisecond
	}
	s := &Switch{
		cfg:    cfg,
		env:    env,
		app:    app,
		ring:   env.Ring(),
		sent:   make(map[uint64]uint64),
		recv:   make(map[uint64][]uint64),
		buffer: make(map[uint64][]bufEntry),
		obs:    obs.OrNop(cfg.Recorder),
	}
	if cfg.Defense != nil {
		// Seal below the multiplex: one envelope covers the mux header
		// and every protocol header above it.
		transport = &authTransport{s: s, down: transport}
	}
	if cfg.Overload != nil && cfg.Overload.BatchMax > 1 {
		// Batch between the multiplex and the envelope: one sealed wire
		// write carries up to BatchMax mux frames per destination per
		// event, so the whole batch costs one MAC. Must be
		// enabled uniformly across the group (like the session key) — an
		// unbatched receiver sees batch frames as malformed.
		s.batch = newBatcher(s, transport, cfg.Overload.BatchMax)
		transport = s.batch
	}
	mux, err := NewMultiplex(transport)
	if err != nil {
		return nil, err
	}
	s.mux = mux
	mux.onMalformed = func(src ids.ProcID) {
		s.countMalformed(src, obs.MalformedDecode)
	}
	// Control channel: the token rides a private reliable channel.
	ctl, err := proto.Build(env,
		proto.UpFunc(s.onControl),
		mux.Port(ids.ControlChannel),
		fifo.New(fifo.Config{}))
	if err != nil {
		return nil, fmt.Errorf("switching: control stack: %w", err)
	}
	s.ctl = ctl
	mux.Bind(ids.ControlChannel, proto.UpFunc(ctl.Recv))
	// Sub-protocol stacks, each on its private channel.
	for i, factory := range cfg.Protocols {
		ch := ids.ProtocolChannel(i)
		stack, err := proto.Build(env,
			proto.UpFunc(s.onData),
			mux.Port(ch),
			factory(env)...)
		if err != nil {
			return nil, fmt.Errorf("switching: protocol %d stack: %w", i, err)
		}
		s.protos = append(s.protos, stack)
		mux.Bind(ch, proto.UpFunc(stack.Recv))
	}
	if cfg.Recovery != nil {
		rec, err := newRecovery(s, *cfg.Recovery)
		if err != nil {
			return nil, err
		}
		s.rec = rec
	}
	if cfg.Overload != nil {
		s.ovl = newOverload(s, *cfg.Overload)
	}
	// The first ring member injects the NORMAL token.
	if env.Self() == s.ring.Member(0) {
		s.hold(Token{Mode: ModeNormal, Initiator: env.Self()}, holdInject)
	}
	return s, nil
}

// Recv routes an incoming transport packet; bind the node's network
// handler here. With Defense enabled the authenticated envelope is
// verified and stripped first: a packet that fails the check is counted
// and dropped before any protocol layer sees it.
func (s *Switch) Recv(src ids.ProcID, pkt []byte) {
	if s.cfg.Defense != nil {
		payload, ok := s.recvAuth(src, pkt)
		if !ok {
			return
		}
		pkt = payload
	}
	// A batch frame (one envelope, many mux frames) is unpacked here —
	// inside the trust boundary, after the envelope verified — and each
	// inner frame takes the same path an unbatched arrival would,
	// including per-frame overload admission, so the conservation ledger
	// counts every application frame individually.
	if s.batch != nil && isBatchFrame(pkt) {
		s.recvBatch(src, pkt)
		return
	}
	s.recvFrame(src, pkt)
}

// recvFrame routes one verified, unbatched mux frame. The overload
// layer consumes data frames (queueing or shedding them); token and
// heartbeat frames keep their direct path.
func (s *Switch) recvFrame(src ids.ProcID, pkt []byte) {
	if s.ovl != nil && s.ovl.admitIngress(src, pkt) {
		return
	}
	s.mux.Recv(src, pkt)
}

// Stop shuts down the switch and its sub-stacks.
func (s *Switch) Stop() {
	s.stopped = true
	if s.held != nil {
		s.held.timer.Stop()
	}
	if s.rec != nil {
		s.rec.stop()
	}
	if s.ovl != nil {
		s.ovl.stop()
	}
	s.ctl.Stop()
	for _, p := range s.protos {
		p.Stop()
	}
}

// Epoch returns the epoch currently being delivered.
func (s *Switch) Epoch() uint64 { return s.deliverEpoch }

// SendEpoch returns the epoch new sends go to (deliverEpoch + 1 while a
// switch is draining).
func (s *Switch) SendEpoch() uint64 { return s.sendEpoch }

// SubStack returns sub-protocol i's stack, giving tests and management
// tools access to layer-specific controls (e.g. vsync view
// installation). Out-of-range indexes return nil.
func (s *Switch) SubStack(i int) *proto.Stack {
	if i < 0 || i >= len(s.protos) {
		return nil
	}
	return s.protos[i]
}

// FrameForEpoch wraps an application payload in the switch's epoch
// header — for control traffic injected directly into a sub-stack (such
// as vsync view messages) that must still parse as switch data at
// receivers. Injected traffic does not count toward the epoch's
// send-count vector; inject only while no switch is closing that epoch,
// or the receivers' completion accounting can run ahead of the vector.
func (s *Switch) FrameForEpoch(epoch uint64, payload []byte) []byte {
	e := wire.NewEncoder(10 + len(payload))
	e.Uvarint(epoch)
	return e.Frame(payload)
}

// ActiveProtocol returns the index of the protocol new sends use.
func (s *Switch) ActiveProtocol() int {
	return int(s.sendEpoch % uint64(len(s.protos)))
}

// Switching reports whether a switch is in progress at this member
// (sends redirected, old epoch still draining).
func (s *Switch) Switching() bool { return s.sendEpoch != s.deliverEpoch }

// Stats returns a copy of the counters.
func (s *Switch) Stats() Stats { return s.stats }

// emit counts e in its Stats field, if any, and records it. Every event
// the member emits goes through here, so each counter is the count of
// its event type in the trace.
func (s *Switch) emit(e obs.Event) {
	if c := s.stats.counter(e.Type); c != nil {
		*c++
	}
	s.obs.Record(e)
}

// Records returns the switches this member initiated.
func (s *Switch) Records() []Record {
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// RequestSwitch asks the member to initiate a switch to the next
// protocol when it next holds a NORMAL token ("the oracle requests the
// SP to switch at one of the processes called the manager", §2).
func (s *Switch) RequestSwitch() { s.wantSwitch = true }

// CancelSwitch withdraws a pending request that has not yet begun.
func (s *Switch) CancelSwitch() { s.wantSwitch = false }

// SwitchPending reports whether a request is waiting for the token.
func (s *Switch) SwitchPending() bool { return s.wantSwitch }

// Cast multicasts an application payload over the currently active
// protocol. Sending is never blocked by a switch in progress (§7).
// With Config.Overload set, the cast enters the bounded egress queue
// instead of going straight to the protocol: it drains at the service
// pace, and at the hard cap it is retried with seeded backoff and
// ultimately shed — Cast itself still never blocks or fails.
func (s *Switch) Cast(payload []byte) error {
	if s.stopped {
		return fmt.Errorf("switching: stopped")
	}
	if s.ovl != nil {
		return s.ovl.admitCast(payload)
	}
	epoch := s.sendEpoch
	s.sent[epoch]++
	e := wire.EncodeInto(s.spare.Get(wire.MaxHeader + len(payload)))
	frame := e.Uvarint(epoch).Frame(payload)
	err := s.protos[epoch%uint64(len(s.protos))].Cast(frame)
	s.spare.Put(frame)
	return err
}

// onData handles a delivery from any sub-protocol stack.
func (s *Switch) onData(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	epoch := d.Uvarint()
	if d.Err() != nil {
		s.countMalformed(src, obs.MalformedDecode)
		return
	}
	payload := d.Remaining()
	switch {
	case epoch == s.deliverEpoch:
		s.countRecv(epoch, src)
		s.app.Deliver(src, payload)
		s.checkComplete()
	case epoch > s.deliverEpoch:
		// New-protocol traffic rides ahead of the switch: buffer it.
		s.countRecv(epoch, src)
		s.emit(obs.Buffered(s.env.Now(), s.env.Self(), src, epoch))
		s.buffer[epoch] = append(s.buffer[epoch], bufEntry{src: src, payload: s.spare.Copy(payload)})
	default:
		// The vector guaranteed every old message arrived before we
		// completed; anything else is a late duplicate.
		s.emit(obs.StaleDrop(s.env.Now(), s.env.Self(), src, epoch))
	}
}

// countRecv increments the per-epoch arrival count for src.
func (s *Switch) countRecv(epoch uint64, src ids.ProcID) {
	v := s.recv[epoch]
	if v == nil {
		v = make([]uint64, s.ring.Size())
		s.recv[epoch] = v
	}
	pos := s.ring.Position(src)
	if pos >= 0 {
		v[pos]++
	}
}

// onControl handles a token arriving on the control channel.
func (s *Switch) onControl(src ids.ProcID, pkt []byte) {
	if s.stopped {
		return
	}
	t, err := DecodeToken(pkt)
	if err != nil {
		s.countMalformed(src, obs.MalformedDecode)
		return
	}
	// Range-validate before the state machine touches the token: a
	// vector longer than the ring would otherwise index past the
	// per-epoch arrival counts, and a foreign initiator would circulate
	// forever (no member ever absorbs it as its own round).
	if len(t.Vector) > s.ring.Size() || s.ring.Position(t.Initiator) < 0 {
		s.countMalformed(src, obs.MalformedRange)
		return
	}
	s.accept(t)
}

// verdict is what a member makes of a token's round (classify).
type verdict uint8

const (
	current verdict = iota // the token goes to its phase's handler
	past                   // a round this member has left: dropped
	future                 // the ring is ahead: catch up, then current
)

// classify is the control plane's one admission rule: it judges t's
// round — its lineage (Gen, Origin) and its step (Epoch, Mode) — against
// this member's own progress. A lineage's token only moves forward
// through the steps, NORMAL(e) < PREPARE(e) < SWITCH(e) < FLUSH(e) <
// NORMAL(e+1), and only NORMAL repeats a step (idle rotation). Messages
// that carry their round, with past rounds discarded and future ones
// jumped to, make the protocol communication-closed (Damian et al.;
// DESIGN §2.1). In a crash-free run every token is current.
func (s *Switch) classify(t Token) verdict {
	if s.rec != nil && !s.rec.supersedes(t) {
		return past // a superseded lineage
	}
	if t.Mode != ModeNormal {
		switch {
		case t.Epoch+1 < s.deliverEpoch:
			// The member has pruned that epoch's state, its send
			// count included: it can no longer take part.
			return past
		case t.Initiator == s.env.Self():
			if !s.initiating {
				return past // a round a newer lineage relieved it of
			}
		case t.Gen == s.passed.Gen && t.Origin == s.passed.Origin &&
			(t.Epoch < s.passed.Epoch || t.Epoch == s.passed.Epoch && t.Mode <= s.passed.Mode):
			// This member already passed this step of the lineage on:
			// the token is lapping the ring without its initiator.
			return past
		}
	}
	if s.ringEpoch(t) > s.deliverEpoch {
		return future
	}
	return current
}

// ringEpoch is the epoch t shows the ring has reached: the token's own,
// or the one after it for a FLUSH whose round this member never entered
// (it did not redirect its sends) — every flusher has closed t.Epoch.
func (s *Switch) ringEpoch(t Token) uint64 {
	if t.Mode == ModeFlush && s.sendEpoch <= t.Epoch {
		return t.Epoch + 1
	}
	return t.Epoch
}

// accept is the control plane's one entry point, for a token off the
// wire and one looped back alike: a past token is dropped — it does not
// re-arm the wedge timer — and a future one catches the member up
// before it is handled as current.
func (s *Switch) accept(t Token) {
	v := s.classify(t)
	if v == past {
		return
	}
	if s.rec != nil {
		s.rec.admit(t)
	}
	if v == future {
		s.forceAdvance(s.ringEpoch(t))
	}
	s.onToken(t)
}

// onToken is the heart of §2's state machine. It sees only current
// tokens (accept).
func (s *Switch) onToken(t Token) {
	self := s.env.Self()
	switch t.Mode {
	case ModeNormal:
		if s.Switching() {
			// A regenerated NORMAL token reached a member whose switch
			// round is still half-applied (the original round's token
			// died): re-run the round from PREPARE.
			s.emit(obs.SwitchAbort(s.env.Now(), self, s.deliverEpoch, t.Gen))
			s.initiate(t.Gen, t.Origin)
			return
		}
		if s.wantSwitch {
			// Become the initiator: this is the only place a switch can
			// start, so concurrent initiators are impossible (§2).
			s.wantSwitch = false
			s.initiating = false // a fresh round, whatever became of the last
			s.initiate(t.Gen, t.Origin)
			return
		}
		// Idle rotation: hold, then pass, advertising the current epoch
		// so a lagging member can catch up.
		t.Epoch = s.deliverEpoch
		s.holdThenPass(t)

	case ModePrepare:
		if t.Initiator == self {
			// Vector complete: disseminate it.
			t.Mode = ModeSwitch
			s.learnVector(t.Vector, t.Epoch)
			s.passToken(t)
			return
		}
		s.applyPrepare(&t)
		s.passToken(t)

	case ModeSwitch:
		if t.Initiator == self {
			// Everyone has the vector; start the flush round.
			t.Mode = ModeFlush
			s.forwardFlushWhenDone(t)
			return
		}
		// A member the round's PREPARE skipped (it was suspected) joins
		// late; the vector is already fixed without its counts.
		s.redirect(t)
		s.learnVector(t.Vector, t.Epoch)
		s.passToken(t)

	case ModeFlush:
		if t.Initiator == self {
			// The flush completed the full circle: every member has
			// delivered all old-protocol messages.
			rec := Record{
				Initiator: self,
				Epoch:     t.Epoch,
				Started:   s.started,
				Finished:  s.env.Now(),
				Gen:       t.Gen,
			}
			s.records = append(s.records, rec)
			s.initiating = false
			s.emit(obs.SwitchComplete(rec.Finished, self, t.Epoch, t.Gen, rec.Duration()))
			if s.cfg.OnSwitchComplete != nil {
				s.cfg.OnSwitchComplete(rec)
			}
			s.holdThenPass(Token{
				Mode:      ModeNormal,
				Epoch:     s.deliverEpoch,
				Initiator: self,
				Gen:       t.Gen,
				Origin:    t.Origin,
			})
			return
		}
		s.forwardFlushWhenDone(t)
	}
}

// initiate starts a switch round closing the current epoch under the
// given token lineage, with this member as the initiator — a fresh round,
// or a retry: members that already redirected their sends report their
// (now final) counts again, and slots of members that are gone stay
// zero, so completion waits only on the live membership.
func (s *Switch) initiate(gen uint64, origin ids.ProcID) {
	if !s.initiating {
		// Recorded for a takeover too, so the audit trail sees every
		// initiator of a round, not just the first.
		s.initiating = true
		s.started = s.env.Now()
		s.emit(obs.SwitchStart(s.started, s.env.Self(), s.deliverEpoch, gen))
	}
	s.expected = nil
	prep := Token{
		Mode:      ModePrepare,
		Epoch:     s.deliverEpoch,
		Initiator: s.env.Self(),
		Vector:    make([]uint64, s.ring.Size()),
		Gen:       gen,
		Origin:    origin,
	}
	s.applyPrepare(&prep)
	s.passToken(prep)
}

// setSendEpoch advances the epoch new sends go to. This is the atomic
// key-roll point of the authenticated session: outgoing frames seal
// under the new epoch's derived key from this instant, the grace window
// for the previous epoch's key opens (rollEpochKey), and every
// epoch-aware sub-layer is told the new epoch so per-epoch MAC keys and
// replay windows roll with the switch round instead of resetting.
func (s *Switch) setSendEpoch(epoch uint64) {
	// Flush any pending batch first: frames accumulated under the old
	// sealing epoch must go out under it, never coalesce with frames
	// sealed after the roll (the epoch-flush rule, DESIGN §9).
	if s.batch != nil {
		s.batch.flush()
	}
	s.sendEpoch = epoch
	for _, p := range s.protos {
		p.SetEpoch(epoch)
	}
	s.rollEpochKey()
}

// redirect makes this member's PREPARE step for t's epoch if it has not
// yet: new sends move to the next epoch.
func (s *Switch) redirect(t Token) {
	if t.Epoch == s.deliverEpoch && !s.Switching() {
		s.setSendEpoch(t.Epoch + 1)
		s.emit(obs.Phase(s.env.Now(), s.env.Self(), uint8(t.Mode), t.Epoch, t.Gen))
	}
}

// applyPrepare redirects sending to the new epoch (first PREPARE for the
// current epoch) and records this member's send count in the token's
// vector. On a recovery retry the member has already redirected — or
// even completed — and simply reports its retained, now-final count.
func (s *Switch) applyPrepare(t *Token) {
	s.redirect(*t)
	pos := s.ring.Position(s.env.Self())
	if pos >= 0 && pos < len(t.Vector) {
		t.Vector[pos] = s.sent[t.Epoch]
	}
}

// forceAdvance abandons epochs this member can no longer close (it
// missed their switch rounds while out of the ring) and adopts the
// ring's epoch, releasing buffered future-epoch messages in epoch order.
// Old-epoch messages still owed to this member are given up — the
// non-atomic crash boundary documented in DESIGN.md E10/E13.
func (s *Switch) forceAdvance(target uint64) {
	for s.deliverEpoch < target {
		old := s.deliverEpoch
		s.deliverEpoch++
		s.expected = nil
		delete(s.recv, old)
		s.emit(obs.EpochForced(s.env.Now(), s.env.Self(), s.deliverEpoch))
		s.releaseBuffered()
	}
	for e := range s.sent {
		if e+1 < s.deliverEpoch {
			delete(s.sent, e)
		}
	}
	if s.sendEpoch < s.deliverEpoch {
		s.setSendEpoch(s.deliverEpoch)
	}
	s.releaseFlush()
}

// learnVector records the closing epoch's expected counts and checks
// for completion.
func (s *Switch) learnVector(vector []uint64, epoch uint64) {
	if epoch != s.deliverEpoch {
		return // already completed this switch
	}
	s.expected = make([]uint64, len(vector))
	copy(s.expected, vector)
	s.checkComplete()
}

// checkComplete finishes the local switch once every expected
// old-protocol message has been delivered.
func (s *Switch) checkComplete() {
	if s.expected == nil || !s.Switching() {
		return
	}
	have := s.recv[s.deliverEpoch]
	for pos, want := range s.expected {
		var got uint64
		if have != nil {
			got = have[pos]
		}
		if got < want {
			return
		}
	}
	// All old messages delivered: move to the new epoch and release the
	// buffered messages in arrival order. The closed epoch's send count
	// is retained for one round so a recovery retry of the switch can
	// still collect it.
	old := s.deliverEpoch
	s.deliverEpoch = s.sendEpoch
	s.expected = nil
	delete(s.recv, old)
	for e := range s.sent {
		if e+1 < s.deliverEpoch {
			delete(s.sent, e)
		}
	}
	s.emit(obs.EpochAdvance(s.env.Now(), s.env.Self(), s.deliverEpoch))
	s.releaseBuffered()
	s.releaseFlush()
}

// releaseBuffered delivers the messages buffered for the epoch just
// entered, in arrival order, each buffer going back to the spares once
// its delivery returns.
func (s *Switch) releaseBuffered() {
	pend := s.buffer[s.deliverEpoch]
	delete(s.buffer, s.deliverEpoch)
	for _, b := range pend {
		s.app.Deliver(b.src, b.payload)
		s.spare.Put(b.payload)
	}
}

// forwardFlushWhenDone passes a FLUSH token if this member has completed
// the switch it flushes, otherwise holds it.
func (s *Switch) forwardFlushWhenDone(t Token) {
	if s.deliverEpoch > t.Epoch {
		s.passToken(t)
		return
	}
	s.heldFlush = &t
}

// releaseFlush takes up the held FLUSH once the member's epoch moved. It
// is classified again first: a newer lineage may have superseded its
// round while it was held.
func (s *Switch) releaseFlush() {
	if s.heldFlush == nil {
		return
	}
	t := *s.heldFlush
	s.heldFlush = nil
	if s.classify(t) != past {
		s.forwardFlushWhenDone(t)
	}
}

// holdThenPass keeps the token for the configured interval, then passes
// it on (idle rotation pacing).
func (s *Switch) holdThenPass(t Token) {
	s.emit(obs.TokenHold(s.env.Now(), s.env.Self(), uint8(t.Mode), t.Epoch, t.Gen))
	s.hold(t, holdPass)
}

// holdAction says what becomes of a held token when the hold ends.
type holdAction uint8

const (
	// holdInject: the first ring member puts the NORMAL token into
	// circulation.
	holdInject holdAction = iota
	// holdPass: idle rotation pacing — pass the token on, unless a switch
	// request arrived while holding it.
	holdPass
	// holdLoop: this member is alone, so the token comes straight back.
	holdLoop
)

// tokenHold is the token this member is sitting on and the timer that
// ends the hold. The switch keeps one and re-arms it hop after hop, so a
// rotation allocates no closure, timer or token copy.
type tokenHold struct {
	s      *Switch
	t      Token
	action holdAction
	timer  proto.Timer
}

// hold keeps t for one TokenInterval. A second token arriving while one
// is still held (a regenerated lineage meeting the original) gets a hold
// of its own, so neither is lost.
func (s *Switch) hold(t Token, action holdAction) {
	h := s.held
	if h != nil && !h.timer.Active() {
		h.t, h.action = t, action
		h.timer.Reset(s.cfg.TokenInterval)
		return
	}
	h = &tokenHold{s: s, t: t, action: action}
	h.timer = s.env.After(s.cfg.TokenInterval, h.expire)
	s.held = h
}

func (h *tokenHold) expire() {
	s, t := h.s, h.t
	if s.stopped {
		return
	}
	switch {
	case h.action == holdLoop:
		// A loop-back is an arrival like any other: a current one
		// re-arms the wedge timer, and a superseded token or a lap
		// without its initiator dies here instead of rotating on.
		s.accept(t)
	case h.action == holdPass && t.Mode == ModeNormal && s.wantSwitch && !s.Switching():
		// A request arrived while holding the NORMAL token.
		s.onToken(t)
	default:
		s.passToken(t)
	}
}

// passToken sends the token to the ring successor — skipping suspected
// members when recovery is enabled — or loops it back when this member
// is alone (singleton group, or sole survivor).
func (s *Switch) passToken(t Token) {
	var succ ids.ProcID
	if s.rec != nil {
		succ = s.rec.successor(s.env.Self())
	} else {
		var err error
		succ, err = s.ring.Successor(s.env.Self())
		if err != nil {
			return
		}
	}
	s.emit(obs.TokenPass(s.env.Now(), s.env.Self(), succ, uint8(t.Mode), t.Epoch, t.Gen))
	s.passed = t
	if succ == s.env.Self() {
		s.hold(t, holdLoop)
		return
	}
	_ = s.ctl.Send(succ, t.Encode())
}
