// Package tokenorder implements rotating-token total order, the second
// total-ordering mechanism compared in §7 of the paper (Chang–Maxemchuk
// style [4]): a token carrying the next global sequence number rotates
// around the logical ring; a process wishing to multicast must hold the
// token, stamps its pending messages with consecutive sequence numbers,
// multicasts them, and passes the token on.
//
// Its trade-off, visible in Figure 2: no central bottleneck, but latency
// is relatively high under low load because senders wait — on average
// half a rotation — for the token.
//
// The layer expects a reliable FIFO layer beneath it (package fifo).
package tokenorder

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

const (
	// kindToken passes the sequencing token: {nextSeq}.
	kindToken uint8 = iota + 1
	// kindData carries a sequenced multicast: {seq, payload}.
	kindData
	// kindBatch carries one token visit's worth of sequenced multicasts
	// in a single frame: {firstSeq, count, count × len-prefixed
	// payloads}, sequence numbers consecutive from firstSeq. Only sent
	// with Config.BatchFlush.
	kindBatch
)

// Config tunes the token rotation.
type Config struct {
	// HoldDelay is how long a member holds the token before passing it
	// on, modelling per-hop protocol processing. It must be positive to
	// bound the rotation rate; zero defaults to 1ms.
	HoldDelay time.Duration
	// BatchFlush, when set, coalesces all messages flushed in one token
	// visit into a single multi-message frame (token-carried batching):
	// one frame — and one envelope, one MAC — per visit instead of one
	// per message. Each inner payload still carries its own epoch header
	// from the layer above, so switch-round accounting is unchanged.
	// Off keeps one frame per message.
	// Must be enabled uniformly across the group.
	BatchFlush bool
}

// Layer is one process's instance of the protocol.
type Layer struct {
	cfg  Config
	env  proto.Env
	down proto.Down
	up   proto.Up

	// queue holds payloads awaiting the token, copied into buffers from
	// spare; flush gives each back once its frame is built. spare also
	// holds the copies of arrivals that wait behind a gap.
	queue proto.Queue[[]byte]
	spare wire.Spares
	// holding reports whether this member currently holds the token.
	holding bool
	// tokenSeq is the token's next-sequence value while held.
	tokenSeq uint64

	// Receiver state: the token-stamped sequence, reassembled.
	in proto.Reorder[proto.Sourced]

	// timer starts the rotation (and keeps a singleton's token turning);
	// holdTimer, re-armed on every token visit, ends a hold by running
	// release.
	timer     proto.Timer
	holdTimer proto.Timer
	release   func()
	stopped   bool
	// malformed counts packets dropped by the defensive ingress
	// (decode failure or unknown kind) before any state mutation.
	malformed uint64
}

var _ proto.Layer = (*Layer)(nil)

// New creates a token-ordered layer.
func New(cfg Config) *Layer {
	if cfg.HoldDelay <= 0 {
		cfg.HoldDelay = time.Millisecond
	}
	return &Layer{cfg: cfg}
}

// Init implements proto.Layer. Member 0 of the ring injects the initial
// token.
func (l *Layer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("tokenorder: nil wiring")
	}
	l.env, l.down, l.up = env, down, up
	l.in.SetKeeper(proto.SourcedKeeper{Spare: &l.spare})
	l.release = func() {
		if l.stopped {
			return
		}
		l.passToken()
	}
	if env.Self() == env.Members()[0] {
		// Start the rotation once the whole group is wired; the zero
		// delay defers to after initialization completes.
		l.timer = env.After(0, func() {
			if l.stopped {
				return
			}
			l.acquireToken(0)
		})
	}
	return nil
}

// Stop implements proto.Layer.
func (l *Layer) Stop() {
	l.stopped = true
	if l.timer != nil {
		l.timer.Stop()
	}
	if l.holdTimer != nil {
		l.holdTimer.Stop()
	}
}

// Holding reports whether this member currently holds the token (test
// and metrics hook).
func (l *Layer) Holding() bool { return l.holding }

// QueueLen returns the number of messages awaiting the token.
func (l *Layer) QueueLen() int { return l.queue.Len() }

// Cast implements proto.Layer: enqueue until the token arrives.
func (l *Layer) Cast(payload []byte) error {
	l.queue.Push(l.spare.Copy(payload))
	if l.holding {
		l.flush()
	}
	return nil
}

// Send implements proto.Layer: not part of this protocol.
func (l *Layer) Send(ids.ProcID, []byte) error { return proto.ErrUnsupported }

// acquireToken runs when the token (with next sequence number seq)
// arrives at this member.
func (l *Layer) acquireToken(seq uint64) {
	l.holding = true
	l.tokenSeq = seq
	l.flush()
	l.holdTimer = proto.Rearm(l.env, l.holdTimer, l.cfg.HoldDelay, l.release)
}

// flush multicasts queued messages while the token is held: one frame
// per message, or — with BatchFlush and more than one queued — a single
// multi-message frame for the whole visit. A queued payload's buffer
// goes back to the spares as soon as the frame holds a copy of it.
func (l *Layer) flush() {
	n := l.queue.Len()
	if n == 0 {
		return
	}
	if l.cfg.BatchFlush && n > 1 {
		e := wire.GetEncoder()
		e.U8(kindBatch).Uvarint(l.tokenSeq).Uvarint(uint64(n))
		for i := 0; i < n; i++ {
			p := l.queue.Pop()
			e.BytesField(p)
			l.spare.Put(p)
		}
		l.tokenSeq += uint64(n)
		_ = l.down.Cast(e.Bytes())
		wire.PutEncoder(e)
		return
	}
	for i := 0; i < n; i++ {
		e := wire.GetEncoder()
		e.U8(kindData).Uvarint(l.tokenSeq)
		l.tokenSeq++
		p := l.queue.Pop()
		frame := e.Frame(p)
		l.spare.Put(p)
		// The fifo layer below copies anything it retains, so the frame
		// can ride a pooled encoder.
		_ = l.down.Cast(frame)
		wire.PutEncoder(e)
	}
}

// passToken hands the token to the ring successor.
func (l *Layer) passToken() {
	l.holding = false
	succ, err := l.env.Ring().Successor(l.env.Self())
	if err != nil {
		return
	}
	if succ == l.env.Self() {
		// Singleton group: retain the token, re-arming via the timer to
		// avoid unbounded recursion.
		l.timer = l.env.After(l.cfg.HoldDelay, func() {
			if l.stopped {
				return
			}
			l.acquireToken(l.tokenSeq)
		})
		return
	}
	e := wire.GetEncoder()
	e.U8(kindToken).Uvarint(l.tokenSeq)
	_ = l.down.Send(succ, e.Bytes())
	wire.PutEncoder(e)
}

// Recv implements proto.Layer. A sequence number (token or data) more
// than proto.MaxSeqAhead beyond the delivery horizon — legitimate seqs
// only run ahead by the messages in flight — would poison the token
// lineage or the reorder buffer; it is dropped as malformed, before any
// state mutation.
func (l *Layer) Recv(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	switch d.U8() {
	case kindToken:
		seq := d.Uvarint()
		if d.Err() != nil || seq > l.in.Next()+proto.MaxSeqAhead {
			l.malformed++
			return
		}
		l.acquireToken(seq)
	case kindData:
		seq := d.Uvarint()
		if d.Err() != nil {
			l.malformed++
			return
		}
		l.onData(src, seq, d.Remaining())
	case kindBatch:
		first := d.Uvarint()
		count := d.Uvarint()
		// Each entry costs at least one length byte, so count can never
		// exceed the remaining bytes in a well-formed batch; the horizon
		// guard bounds the whole range, not just the first seq.
		if d.Err() != nil || count == 0 || count > uint64(len(d.Remaining())) ||
			first+count > l.in.Next()+proto.MaxSeqAhead {
			l.malformed++
			return
		}
		// All or nothing: fifo below has consumed this packet, so entries
		// delivered ahead of a damaged one would leave a gap nothing
		// repairs. Entries are views, so walking them all first copies
		// nothing; an entry that must wait behind a gap is copied by the
		// keeper.
		walk := *d
		for i := uint64(0); i < count; i++ {
			walk.BytesField()
		}
		if walk.Err() != nil || len(walk.Remaining()) != 0 {
			l.malformed++ // a damaged length, or trailing garbage
			return
		}
		for i := uint64(0); i < count; i++ {
			l.onData(src, first+i, d.BytesField())
		}
	default:
		l.malformed++
	}
}

// onData takes one sequenced arrival and delivers any in-order run it
// completes; a duplicate is ignored.
func (l *Layer) onData(src ids.ProcID, seq uint64, payload []byte) {
	if l.in.Push(seq, proto.Sourced{Origin: src, Payload: payload}, l.deliver) == proto.TooFarAhead {
		l.malformed++
	}
}

func (l *Layer) deliver(m proto.Sourced) { l.up.Deliver(m.Origin, m.Payload) }

// MalformedDropped returns how many packets the defensive ingress
// rejected (decode failure or unknown kind).
func (l *Layer) MalformedDropped() uint64 { return l.malformed }
