package arq

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Selective-repeat wire kinds (distinct from the cumulative-ack pair so
// a mixed deployment fails loudly instead of misinterpreting acks).
const (
	kindSRData uint8 = iota + 11 // {seq, payload}
	kindSRAck                    // {seq} — individual, not cumulative
)

// SelectiveRepeat is the third classic ARQ: a sliding window with
// per-frame acknowledgements and retransmission of *only* the missing
// frames. It dominates go-back-N on lossy pipelined links (no
// whole-window resends) at the cost of receiver-side buffering and
// per-frame bookkeeping — the third regime of the E11 trade-off table.
type SelectiveRepeat struct {
	window  int
	timeout time.Duration
	env     proto.Env
	down    proto.Down
	up      proto.Up

	out     map[ids.ProcID]*srOut
	in      map[ids.ProcID]*srIn
	stopped bool
	stats   Stats
}

type srOut struct {
	nextSeq uint64
	base    uint64
	// pending holds queued payloads not yet admitted to the window.
	pending [][]byte
	// unacked holds in-flight frames by sequence number.
	unacked map[uint64][]byte
	timer   proto.Timer
}

type srIn struct {
	next   uint64
	buffer map[uint64][]byte
}

var _ proto.Layer = (*SelectiveRepeat)(nil)

// NewSelectiveRepeat creates a selective-repeat layer. window < 1
// defaults to 8; timeout <= 0 defaults to 50ms.
func NewSelectiveRepeat(window int, timeout time.Duration) *SelectiveRepeat {
	if window < 1 {
		window = 8
	}
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	return &SelectiveRepeat{
		window:  window,
		timeout: timeout,
		out:     make(map[ids.ProcID]*srOut),
		in:      make(map[ids.ProcID]*srIn),
	}
}

// Init implements proto.Layer.
func (l *SelectiveRepeat) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("selectiverepeat: nil wiring")
	}
	l.env, l.down, l.up = env, down, up
	return nil
}

// Stop implements proto.Layer.
func (l *SelectiveRepeat) Stop() {
	l.stopped = true
	for _, o := range l.out {
		if o.timer != nil {
			o.timer.Stop()
		}
	}
}

// Stats returns a copy of the counters.
func (l *SelectiveRepeat) Stats() Stats { return l.stats }

// Cast implements proto.Layer (see common.Cast): one copy serves every
// destination and the loopback delivery.
func (l *SelectiveRepeat) Cast(payload []byte) error {
	buf := clone(payload)
	for _, p := range l.env.Members() {
		if p == l.env.Self() {
			continue
		}
		if err := l.enqueue(p, buf); err != nil {
			return err
		}
	}
	l.up.Deliver(l.env.Self(), buf)
	return nil
}

// Send implements proto.Layer: reliable FIFO unicast.
func (l *SelectiveRepeat) Send(dst ids.ProcID, payload []byte) error {
	return l.enqueue(dst, clone(payload))
}

// enqueue queues buf, a copy the layer owns, for dst.
func (l *SelectiveRepeat) enqueue(dst ids.ProcID, buf []byte) error {
	if l.stopped {
		return fmt.Errorf("selectiverepeat: stopped")
	}
	o := l.out[dst]
	if o == nil {
		o = &srOut{unacked: make(map[uint64][]byte)}
		l.out[dst] = o
	}
	o.pending = append(o.pending, buf)
	l.pump(dst, o)
	return nil
}

func (l *SelectiveRepeat) pump(dst ids.ProcID, o *srOut) {
	for len(o.pending) > 0 && int(o.nextSeq-o.base) < l.window {
		payload := o.pending[0]
		o.pending = o.pending[1:]
		seq := o.nextSeq
		o.nextSeq++
		o.unacked[seq] = payload
		l.stats.Sent++
		l.transmit(dst, seq, payload)
	}
	if len(o.pending) > 0 {
		l.stats.Queued++
	}
	l.armTimer(dst, o)
}

func (l *SelectiveRepeat) transmit(dst ids.ProcID, seq uint64, payload []byte) {
	e := wire.NewEncoder(12)
	e.U8(kindSRData).Uvarint(seq)
	_ = l.down.Send(dst, e.Prepend(payload))
}

func (l *SelectiveRepeat) armTimer(dst ids.ProcID, o *srOut) {
	if (o.timer != nil && o.timer.Active()) || len(o.unacked) == 0 {
		return
	}
	o.timer = l.env.After(l.timeout, func() {
		if l.stopped {
			return
		}
		// Selective retransmission: only the frames still unacked,
		// scanned in sequence order — ranging over the map directly
		// would resend in Go's randomized iteration order and make the
		// simulation's event schedule nondeterministic run-to-run.
		for seq := o.base; seq < o.nextSeq; seq++ {
			payload, still := o.unacked[seq]
			if !still {
				continue
			}
			l.stats.Retransmits++
			l.transmit(dst, seq, payload)
		}
		o.timer = nil
		l.armTimer(dst, o)
	})
}

// Recv implements proto.Layer.
func (l *SelectiveRepeat) Recv(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	switch d.U8() {
	case kindSRData:
		seq := d.Uvarint()
		if d.Err() != nil {
			return
		}
		in := l.in[src]
		if in == nil {
			in = &srIn{buffer: make(map[uint64][]byte)}
			l.in[src] = in
		}
		// Ack every arrival, duplicate or not (acks can be lost).
		e := wire.NewEncoder(12)
		e.U8(kindSRAck).Uvarint(seq)
		l.stats.AcksSent++
		_ = l.down.Send(src, e.Bytes())
		if seq < in.next {
			l.stats.DupsDropped++
			return
		}
		if _, dup := in.buffer[seq]; dup {
			l.stats.DupsDropped++
			return
		}
		payload := make([]byte, len(d.Remaining()))
		copy(payload, d.Remaining())
		in.buffer[seq] = payload
		for {
			p, ok := in.buffer[in.next]
			if !ok {
				break
			}
			delete(in.buffer, in.next)
			in.next++
			l.up.Deliver(src, p)
		}
	case kindSRAck:
		seq := d.Uvarint()
		if d.Err() != nil {
			return
		}
		o := l.out[src]
		if o == nil {
			return
		}
		delete(o.unacked, seq)
		// Slide the base past fully acked prefixes.
		for o.base < o.nextSeq {
			if _, still := o.unacked[o.base]; still {
				break
			}
			o.base++
		}
		// Refresh the shared timer on progress so frames newer than the
		// acked one get a full timeout rather than the stale one's
		// remainder (spurious retransmissions otherwise).
		if o.timer != nil {
			o.timer.Stop()
			o.timer = nil
		}
		l.pump(src, o)
	}
}
