package switching

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// OverloadConfig enables the overload-protection layer: bounded
// per-peer ingress queues with paced service, a bounded egress queue
// with watermark-based backpressure toward local senders, deterministic
// drop-newest load shedding when a hard limit is hit, and a seeded,
// jittered retry/backoff for application sends rejected at the egress
// limit.
//
// Nil Config.Overload is PaperExact's message path: no
// queueing, no pacing, no shedding. With the layer enabled, switch-round
// control frames (the token channel) and failure-detector heartbeats
// always bypass the ingress queue — overload must never stall the
// switch state machine or make the ring suspect healthy members.
//
// An ingress shed is indistinguishable from network loss to the layers
// above, so reliable sub-protocols (fifo) repair it by retransmission;
// an egress shed abandons the send after the retry budget and is
// final. Both are counted (Stats.Shed, obs.EvShed) — shedding is loud,
// never silent.
type OverloadConfig struct {
	// IngressQueueCap bounds each peer's ingress queue of data frames
	// (frames beyond it are shed drop-newest). Required, positive.
	IngressQueueCap int
	// EgressQueueCap bounds the queue of outgoing application casts.
	// Required, positive.
	EgressQueueCap int
	// LowWatermark and HighWatermark drive backpressure on the egress
	// queue depth: crossing High pauses local senders
	// (obs.EvBackpressureOn, Stats.Backpressured, Switch.Backpressured),
	// draining back to Low resumes them (obs.EvBackpressureOff).
	// Defaults: High = 3/4 of EgressQueueCap (at least 1), Low = High/3.
	// Low must be below High and High at most EgressQueueCap, defaults
	// included.
	LowWatermark  int
	HighWatermark int
	// ServiceInterval paces both queues: one ingress frame is handed to
	// the demultiplexer and one egress cast is handed to the active
	// protocol per interval — the model of bounded processing capacity
	// that makes overload observable. Defaults to TokenInterval/4.
	ServiceInterval time.Duration
	// RetryBackoff is the base delay before retrying an application
	// send rejected at the egress cap; attempt k waits
	// RetryBackoff << (k-1) plus a seeded jitter of up to half that.
	// Defaults to 2*ServiceInterval.
	RetryBackoff time.Duration
	// MaxRetryShift caps the exponential backoff shift and doubles as
	// the retry budget: after MaxRetryShift failed attempts the send is
	// shed for good. Defaults to 4; must be in [0, 16].
	MaxRetryShift int
	// BatchMax, when > 1, enables egress frame batching: each egress
	// service tick drains up to BatchMax same-epoch casts instead of
	// one, and every mux frame generated within one event-loop step
	// coalesces into a single sealed wire write per destination (one
	// envelope, one MAC, per batch; see batch.go).
	// 0 or 1 keeps the one-frame-per-write format.
	// Must be set uniformly across the group: an unbatched receiver
	// counts batch frames as malformed. Must be at most 256.
	BatchMax int
}

// Validate checks the overload knobs (Config.Validate calls this).
func (c OverloadConfig) Validate() error {
	if c.IngressQueueCap <= 0 {
		return fmt.Errorf("switching: overload ingress queue cap %d must be positive", c.IngressQueueCap)
	}
	if c.EgressQueueCap <= 0 {
		return fmt.Errorf("switching: overload egress queue cap %d must be positive", c.EgressQueueCap)
	}
	if c.LowWatermark < 0 || c.HighWatermark < 0 {
		return fmt.Errorf("switching: negative overload watermark")
	}
	low, high := c.watermarks()
	if low >= high {
		return fmt.Errorf("switching: overload low watermark %d must be below high watermark %d", low, high)
	}
	if high > c.EgressQueueCap {
		return fmt.Errorf("switching: overload high watermark %d above egress queue cap %d",
			high, c.EgressQueueCap)
	}
	if c.ServiceInterval < 0 || c.RetryBackoff < 0 {
		return fmt.Errorf("switching: negative overload interval")
	}
	if c.MaxRetryShift < 0 || c.MaxRetryShift > 16 {
		return fmt.Errorf("switching: overload retry backoff shift %d out of range [0, 16]", c.MaxRetryShift)
	}
	if c.BatchMax < 0 || c.BatchMax > 256 {
		return fmt.Errorf("switching: overload batch max %d out of range [0, 256]", c.BatchMax)
	}
	return nil
}

// watermarks returns the low and high watermarks with their defaults
// resolved: the one place both Validate and the layer read them.
func (c OverloadConfig) watermarks() (low, high int) {
	low, high = c.LowWatermark, c.HighWatermark
	if high == 0 {
		high = max(c.EgressQueueCap*3/4, 1)
	}
	if low == 0 {
		low = high / 3
	}
	return low, high
}

// OverloadAccounting is the overload layer's conservation ledger,
// snapshot at call time. Every message that crossed the layer is in
// exactly one bucket, so
//
//	IngressAdmitted == IngressServed + IngressQueued
//	Casts           == EgressAdmitted + EgressRetrying + EgressShed
//	EgressAdmitted  == EgressSent + EgressQueued
//
// hold at every virtual instant — the no-silent-loss invariant the
// chaos harness checks after every run. The MaxDepth fields are
// high-water marks proving bounded memory against the caps.
type OverloadAccounting struct {
	// Casts is every application cast that entered the layer.
	Casts uint64
	// IngressAdmitted counts data frames accepted into a per-peer
	// ingress queue; IngressServed those handed on to the
	// demultiplexer; IngressShed those dropped at the cap (shed frames
	// are in no other bucket — they left the system, loudly).
	IngressAdmitted uint64
	IngressServed   uint64
	IngressShed     uint64
	// IngressQueued is the frames currently queued across all peers.
	IngressQueued uint64
	// IngressMaxDepth is the deepest any single per-peer queue ever got.
	IngressMaxDepth int
	// EgressAdmitted counts casts accepted into the egress queue
	// (possibly after retries); EgressSent those handed to the active
	// protocol; EgressShed those abandoned after the retry budget.
	EgressAdmitted uint64
	EgressSent     uint64
	EgressShed     uint64
	// EgressQueued and EgressRetrying are the casts currently queued
	// and currently waiting on a scheduled retry.
	EgressQueued   uint64
	EgressRetrying uint64
	// EgressMaxDepth is the deepest the egress queue ever got.
	EgressMaxDepth int
	// IngressCap and EgressCap echo the configured caps (zero means
	// the layer is disabled and the ledger is empty).
	IngressCap, EgressCap int
}

// egressEntry is one queued (or retrying) application cast. The epoch
// is captured when the application called Cast, so the wire frame and
// any caller-side epoch tagging agree even when the send is delayed
// across a switch round.
type egressEntry struct {
	frame []byte
	epoch uint64
}

// overload is one member's overload-protection state.
type overload struct {
	s   *Switch
	cfg OverloadConfig

	// ingress holds per-peer bounded queues of verified mux frames;
	// service is one frame per interval, round-robin in ring order
	// (serveIdx) so draining is deterministic. serveFn/drainFn are the
	// timer callbacks, bound once so arming a timer does not allocate a
	// method-value closure.
	ingress      map[ids.ProcID]*proto.Queue[[]byte]
	serveFn      func()
	drainFn      func()
	serveIdx     int
	draining     bool
	ingressTimer proto.Timer

	// egress is the bounded queue of outgoing casts; paused is the
	// backpressure state; retrying counts casts waiting on a retry.
	egress      proto.Queue[egressEntry]
	sending     bool
	egressTimer proto.Timer
	paused      bool
	retrying    uint64

	acct OverloadAccounting
}

// newOverload normalizes the defaults and builds the layer. The
// configuration has passed Validate.
func newOverload(s *Switch, cfg OverloadConfig) *overload {
	if cfg.ServiceInterval == 0 {
		cfg.ServiceInterval = s.cfg.TokenInterval / 4
		if cfg.ServiceInterval <= 0 {
			cfg.ServiceInterval = time.Millisecond
		}
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 2 * cfg.ServiceInterval
	}
	if cfg.MaxRetryShift == 0 {
		cfg.MaxRetryShift = 4
	}
	cfg.LowWatermark, cfg.HighWatermark = cfg.watermarks()
	o := &overload{
		s:       s,
		cfg:     cfg,
		ingress: make(map[ids.ProcID]*proto.Queue[[]byte]),
	}
	o.serveFn = o.serveIngress
	o.drainFn = o.drainEgress
	o.acct.IngressCap = cfg.IngressQueueCap
	o.acct.EgressCap = cfg.EgressQueueCap
	return o
}

func (o *overload) stop() {
	if o.ingressTimer != nil {
		o.ingressTimer.Stop()
	}
	if o.egressTimer != nil {
		o.egressTimer.Stop()
	}
}

// --- ingress ---

// admitIngress classifies one verified transport frame. It returns
// false for frames the overload layer must never touch — the token
// channel and failure-detector heartbeats, which keep their direct
// path — and for frames whose channel header does not decode (the
// demultiplexer owns malformed accounting). Everything else is consumed:
// queued under its sender, or shed drop-newest at the cap. The queue
// holds pkt itself: a delivered frame is immutable and may be retained.
func (o *overload) admitIngress(src ids.ProcID, pkt []byte) bool {
	d := wire.NewDecoder(pkt)
	ch := d.Channel()
	if d.Err() != nil || ch == ids.ControlChannel || ch == detectorChannel {
		return false
	}
	q := o.ingress[src]
	if q == nil {
		q = &proto.Queue[[]byte]{}
		o.ingress[src] = q
	}
	if q.Len() >= o.cfg.IngressQueueCap {
		o.acct.IngressShed++
		o.s.emit(obs.Shed(o.s.env.Now(), o.s.env.Self(), src, obs.ShedIngress, q.Len()))
		return true
	}
	q.Push(pkt)
	o.acct.IngressAdmitted++
	if d := q.Len(); d > o.acct.IngressMaxDepth {
		o.acct.IngressMaxDepth = d
	}
	o.armIngress()
	return true
}

func (o *overload) armIngress() {
	if o.draining || o.s.stopped {
		return
	}
	o.draining = true
	o.ingressTimer = proto.Rearm(o.s.env, o.ingressTimer, o.cfg.ServiceInterval, o.serveFn)
}

// serveIngress hands queued frames to the demultiplexer, round-robin
// over the ring order, then re-arms while work remains: one frame per
// service tick unbatched, up to BatchMax per tick
// with batching enabled — the ingress mirror of drainEgress's
// multi-drain. Serving a batch's worth of frames in one event is what
// lets the responses they trigger (a sequencer's ordered multicasts,
// acks) coalesce in the egress batcher instead of trickling out one
// wire write per served frame.
func (o *overload) serveIngress() {
	o.draining = false
	s := o.s
	if s.stopped {
		return
	}
	max := o.cfg.BatchMax
	if max < 1 {
		max = 1
	}
	members := s.members
	for n := 0; n < max && !s.stopped; n++ {
		served := false
		for range members {
			p := members[o.serveIdx%len(members)]
			o.serveIdx++
			q := o.ingress[p]
			if q == nil || q.Len() == 0 {
				continue
			}
			pkt := q.Pop()
			o.acct.IngressServed++
			s.mux.Recv(p, pkt)
			served = true
			break
		}
		if !served {
			break
		}
	}
	if o.acct.IngressAdmitted > o.acct.IngressServed {
		o.armIngress()
	}
}

// --- egress ---

// admitCast runs one application cast through the egress queue. The
// epoch is stamped here — Cast time — so callers that tag payloads with
// the send epoch stay consistent even if the frame drains later.
func (o *overload) admitCast(payload []byte) error {
	s := o.s
	o.acct.Casts++
	epoch := s.sendEpoch
	// The queue retains the frame and the caller keeps payload, so the
	// frame is a copy: one right-sized allocation via Frame (Prepend
	// would cost two).
	e := wire.NewEncoder(10 + len(payload))
	e.Uvarint(epoch)
	ent := egressEntry{frame: e.Frame(payload), epoch: epoch}
	if o.egress.Len() >= o.cfg.EgressQueueCap {
		o.scheduleRetry(ent, 1)
		return nil
	}
	o.enqueueEgress(ent)
	return nil
}

// enqueueEgress admits one cast: only now does it count toward the
// epoch's send vector, because only queued casts are guaranteed to go
// out (retrying casts may yet be shed, and a phantom count would wedge
// the switch round waiting for a message that never comes).
func (o *overload) enqueueEgress(ent egressEntry) {
	s := o.s
	s.sent[ent.epoch]++
	o.egress.Push(ent)
	o.acct.EgressAdmitted++
	if d := o.egress.Len(); d > o.acct.EgressMaxDepth {
		o.acct.EgressMaxDepth = d
	}
	if !o.paused && o.egress.Len() >= o.cfg.HighWatermark {
		o.paused = true
		s.emit(obs.BackpressureOn(s.env.Now(), s.env.Self(), o.egress.Len()))
	}
	o.armEgress()
}

func (o *overload) armEgress() {
	if o.sending || o.s.stopped || o.egress.Len() == 0 {
		return
	}
	o.sending = true
	o.egressTimer = proto.Rearm(o.s.env, o.egressTimer, o.cfg.ServiceInterval, o.drainFn)
}

// drainEgress hands queued casts to their epoch's protocol: one per
// service tick unbatched, up to BatchMax per tick
// with batching enabled — but only a same-epoch prefix, so a single
// tick's worth of frames (which the batcher coalesces into one wire
// write) never mixes epochs.
func (o *overload) drainEgress() {
	o.sending = false
	s := o.s
	if s.stopped || o.egress.Len() == 0 {
		return
	}
	max := o.cfg.BatchMax
	if max < 1 {
		max = 1
	}
	epoch := o.egress.At(0).epoch
	for n := 0; n < max && o.egress.Len() > 0 && o.egress.At(0).epoch == epoch; n++ {
		ent := o.egress.Pop()
		o.acct.EgressSent++
		_ = s.protos[ent.epoch%uint64(len(s.protos))].Cast(ent.frame)
	}
	if o.paused && o.egress.Len() <= o.cfg.LowWatermark {
		o.paused = false
		s.emit(obs.BackpressureOff(s.env.Now(), s.env.Self(), o.egress.Len()))
	}
	o.armEgress()
}

// scheduleRetry backs off a cast rejected at the egress cap. Attempt k
// fires after RetryBackoff << (k-1) plus a jitter drawn from the
// member's seeded stream (deterministic in simulation); attempts past
// MaxRetryShift shed the cast for good.
func (o *overload) scheduleRetry(ent egressEntry, attempt int) {
	s := o.s
	if attempt > o.cfg.MaxRetryShift {
		o.acct.EgressShed++
		s.emit(obs.Shed(s.env.Now(), s.env.Self(), obs.NoPeer, obs.ShedEgress, o.egress.Len()))
		return
	}
	backoff := o.cfg.RetryBackoff << (attempt - 1)
	backoff += time.Duration(s.env.Rand().Int63n(int64(backoff/2) + 1))
	s.emit(obs.RetrySend(s.env.Now(), s.env.Self(), attempt, backoff))
	o.retrying++
	s.env.After(backoff, func() {
		if s.stopped {
			return // ledger freezes where it was: the cast stays "retrying"
		}
		o.retrying--
		if o.egress.Len() < o.cfg.EgressQueueCap {
			o.enqueueEgress(ent)
			return
		}
		o.scheduleRetry(ent, attempt+1)
	})
}

// accounting snapshots the conservation ledger. IngressQueued is
// counted from the queues themselves, so the ledger identity checks the
// Admitted − Served difference serveIngress re-arms on.
func (o *overload) accounting() OverloadAccounting {
	a := o.acct
	for _, q := range o.ingress {
		a.IngressQueued += uint64(q.Len())
	}
	a.EgressQueued = uint64(o.egress.Len())
	a.EgressRetrying = o.retrying
	return a
}

// OverloadAccounting returns the overload layer's conservation ledger
// (the zero value when Config.Overload is nil).
func (s *Switch) OverloadAccounting() OverloadAccounting {
	if s.ovl == nil {
		return OverloadAccounting{}
	}
	return s.ovl.accounting()
}

// Backpressured reports whether the egress watermarks currently ask
// local senders to pause (always false when Config.Overload is nil).
func (s *Switch) Backpressured() bool {
	return s.ovl != nil && s.ovl.paused
}
