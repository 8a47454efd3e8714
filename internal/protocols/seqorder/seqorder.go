// Package seqorder implements sequencer-based total order, the first of
// the two total-ordering mechanisms compared in §7 of the paper
// (Kaashoek et al.'s Amoeba-style protocol [8]): messages are sent in
// FIFO order to a centralized sequencer, which assigns global sequence
// numbers and forwards them by multicast, again in FIFO order.
//
// Its trade-off, visible in Figure 2: low latency — essentially two
// network hops — but the sequencer becomes a bottleneck as the number of
// active senders grows.
//
// The layer expects a reliable FIFO layer beneath it (package fifo).
package seqorder

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

const (
	// kindSubmit carries a message from an origin to the sequencer.
	kindSubmit uint8 = iota + 1
	// kindOrder carries a sequenced message from the sequencer to all.
	kindOrder
)

// Layer is one process's instance of the protocol.
type Layer struct {
	sequencer ids.ProcID
	env       proto.Env
	down      proto.Down
	up        proto.Up

	// Sequencer state: next global sequence number to assign.
	nextSeq uint64

	// Receiver state: the global sequence, reassembled (defensive — the
	// fifo below already delivers the sequencer's stream in order, but
	// the layer does not rely on it).
	in proto.Reorder[proto.Sourced]
	// spare holds the copies of messages that wait behind a gap.
	spare wire.Spares
	// malformed counts packets dropped by the defensive ingress
	// (decode failure or unknown kind) before any state mutation.
	malformed uint64
}

var _ proto.Layer = (*Layer)(nil)

// New creates a sequencer-ordered layer. sequencer designates the member
// acting as the sequencer (conventionally member 0).
func New(sequencer ids.ProcID) *Layer {
	return &Layer{sequencer: sequencer}
}

// Init implements proto.Layer.
func (l *Layer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("seqorder: nil wiring")
	}
	if !env.Ring().Contains(l.sequencer) {
		return fmt.Errorf("seqorder: sequencer %v is not a group member", l.sequencer)
	}
	l.env, l.down, l.up = env, down, up
	l.in.SetKeeper(proto.SourcedKeeper{Spare: &l.spare})
	return nil
}

// Stop implements proto.Layer.
func (l *Layer) Stop() {}

// Cast implements proto.Layer: route the payload through the sequencer.
func (l *Layer) Cast(payload []byte) error {
	if l.env.Self() == l.sequencer {
		// The sequencer orders its own messages directly.
		return l.order(l.env.Self(), payload)
	}
	e := wire.GetEncoder()
	e.U8(kindSubmit)
	// The fifo layer below copies anything it retains, so the frame can
	// ride a pooled encoder.
	err := l.down.Send(l.sequencer, e.Frame(payload))
	wire.PutEncoder(e)
	return err
}

// Send implements proto.Layer. Point-to-point traffic has no total-order
// semantics; it is not part of this protocol.
func (l *Layer) Send(ids.ProcID, []byte) error { return proto.ErrUnsupported }

// order assigns the next global sequence number and multicasts. Only the
// sequencer calls this.
func (l *Layer) order(origin ids.ProcID, payload []byte) error {
	seq := l.nextSeq
	l.nextSeq++
	e := wire.GetEncoder()
	e.U8(kindOrder).Uvarint(seq).Proc(origin)
	err := l.down.Cast(e.Frame(payload))
	wire.PutEncoder(e)
	return err
}

// Recv implements proto.Layer.
func (l *Layer) Recv(src ids.ProcID, pkt []byte) {
	if l.env == nil {
		return // not initialized
	}
	d := wire.NewDecoder(pkt)
	switch d.U8() {
	case kindSubmit:
		if d.Err() != nil {
			l.malformed++
			return
		}
		if l.env.Self() != l.sequencer {
			return
		}
		// src is the origin: the fifo below reports the true sender.
		_ = l.order(src, d.Remaining())
	case kindOrder:
		seq := d.Uvarint()
		origin := d.Proc()
		if d.Err() != nil {
			l.malformed++
			return
		}
		// A duplicate is ignored; a seq beyond proto.MaxSeqAhead (the
		// sequencer assigns densely, so corrupted or forged) is malformed.
		if l.in.Push(seq, proto.Sourced{Origin: origin, Payload: d.Remaining()}, l.deliver) == proto.TooFarAhead {
			l.malformed++
		}
	default:
		l.malformed++
	}
}

func (l *Layer) deliver(m proto.Sourced) { l.up.Deliver(m.Origin, m.Payload) }

// MalformedDropped returns how many packets the defensive ingress
// rejected (decode failure or unknown kind).
func (l *Layer) MalformedDropped() uint64 { return l.malformed }
