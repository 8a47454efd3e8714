// Package causal implements vector-clock causal multicast (Birman–
// Schiper–Stephenson style) — a repository extension beyond the paper's
// Table 1 that exercises the meta-property machinery on a property the
// paper does not classify.
//
// Causal Order turns out to mirror Reliability's §6.3 status: it lacks
// one meta-property (it is not *delayable* — delaying a delivery past a
// later send retroactively creates a causal edge), so it falls outside
// the provably-SP-safe class, yet the switching protocol preserves it
// anyway: the SP's old-before-new delivery boundary subsumes every
// cross-epoch causal dependency. See property.CausalOrder and the
// switching package's tests.
//
// The layer expects a reliable layer beneath it (package fifo) and a
// fixed membership (the ring): vector clocks are indexed by ring
// position.
package causal

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Layer is one process's causal-multicast instance.
type Layer struct {
	env  proto.Env
	down proto.Down
	up   proto.Up

	// vc[k] counts messages delivered from ring position k.
	vc []uint64
	// sent counts this process's own casts, which may run ahead of its
	// delivered-from-self clock entry (back-to-back casts must carry
	// distinct, increasing stamps).
	sent uint64
	// pending holds arrivals whose causal past is not yet delivered:
	// copies, in buffers from spare, which each gets back once delivered.
	pending []pendingMsg
	spare   wire.Spares
	// buffered is the high-water mark of the pending queue (metrics).
	buffered int
	// malformed counts packets dropped by the defensive ingress
	// (decode failure or stamp-length mismatch) before any state
	// mutation.
	malformed uint64
}

type pendingMsg struct {
	src     ids.ProcID
	vc      []uint64
	payload []byte
}

var _ proto.Layer = (*Layer)(nil)

// New creates a causal layer.
func New() *Layer { return &Layer{} }

// Init implements proto.Layer.
func (l *Layer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("causal: nil wiring")
	}
	l.env, l.down, l.up = env, down, up
	l.vc = make([]uint64, env.Ring().Size())
	return nil
}

// Stop implements proto.Layer.
func (l *Layer) Stop() {}

// Pending returns the number of causally blocked messages (test hook).
func (l *Layer) Pending() int { return len(l.pending) }

// MaxBuffered returns the high-water mark of the pending queue.
func (l *Layer) MaxBuffered() int { return l.buffered }

// Clock returns a copy of the local vector clock.
func (l *Layer) Clock() []uint64 {
	out := make([]uint64, len(l.vc))
	copy(out, l.vc)
	return out
}

// Cast implements proto.Layer: stamp the payload with the vector clock
// it must be delivered after. The sender's own component is its send
// counter (which may run ahead of deliveries — earlier own casts are
// part of the new message's causal past); the rest is its delivered
// clock. Clock advancement happens at delivery, uniformly for every
// receiver including the sender's own loopback.
func (l *Layer) Cast(payload []byte) error {
	pos := l.env.Ring().Position(l.env.Self())
	if pos < 0 {
		return fmt.Errorf("causal: %v not on the ring", l.env.Self())
	}
	stamp := make([]uint64, len(l.vc))
	copy(stamp, l.vc)
	l.sent++
	stamp[pos] = l.sent
	e := wire.NewEncoder(8 + 2*len(stamp))
	e.Counts(stamp)
	return l.down.Cast(e.Prepend(payload))
}

// Send implements proto.Layer: not part of this protocol.
func (l *Layer) Send(ids.ProcID, []byte) error { return proto.ErrUnsupported }

// Recv implements proto.Layer.
func (l *Layer) Recv(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	stamp := d.Counts()
	if d.Err() != nil || len(stamp) != len(l.vc) {
		l.malformed++
		return
	}
	if pos := l.env.Ring().Position(src); pos < 0 || stamp[pos] <= l.vc[pos] {
		return // unknown sender or already-delivered duplicate
	}
	l.pending = append(l.pending, pendingMsg{src: src, vc: stamp, payload: l.spare.Copy(d.Remaining())})
	if len(l.pending) > l.buffered {
		l.buffered = len(l.pending)
	}
	l.drain()
}

// MalformedDropped returns how many packets the defensive ingress
// rejected (decode failure or stamp-length mismatch).
func (l *Layer) MalformedDropped() uint64 { return l.malformed }

// deliverable reports whether m's causal past is fully delivered: the
// next message from its sender, with no knowledge we lack.
func (l *Layer) deliverable(m pendingMsg) bool {
	pos := l.env.Ring().Position(m.src)
	if pos < 0 {
		return false
	}
	for k := range l.vc {
		switch {
		case k == pos:
			if m.vc[k] != l.vc[k]+1 {
				return false
			}
		default:
			if m.vc[k] > l.vc[k] {
				return false
			}
		}
	}
	return true
}

// drain delivers every pending message whose dependencies are met,
// repeating until a fixpoint.
func (l *Layer) drain() {
	for {
		progress := false
		for i := 0; i < len(l.pending); i++ {
			m := l.pending[i]
			if !l.deliverable(m) {
				continue
			}
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			pos := l.env.Ring().Position(m.src)
			l.vc[pos]++
			l.up.Deliver(m.src, m.payload)
			l.spare.Put(m.payload)
			progress = true
			i--
		}
		if !progress {
			return
		}
	}
}
