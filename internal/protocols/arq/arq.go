// Package arq implements two classic point-to-point reliability
// protocols — stop-and-wait and go-back-N — as switchable layers,
// realizing the paper's §1 remark that "our work can easily be
// specialized for point-to-point communication": a two-member group
// under the switching protocol is exactly a switchable point-to-point
// channel.
//
// The two protocols exhibit the same kind of trade-off as the paper's
// total-order pair: stop-and-wait is trivially simple and uses no
// buffering, but its throughput collapses to one frame per round-trip;
// go-back-N pipelines a window of frames, paying buffer space and
// wasted retransmissions under loss. The crossover (link delay ×
// offered load) is reproduced in BenchmarkP2PARQ.
package arq

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Packet kinds shared by both protocols.
const (
	kindData uint8 = iota + 1 // {seq, payload}
	kindAck                   // {cumulative next-expected seq}
)

// Stats counts ARQ activity.
type Stats struct {
	Sent        uint64
	Retransmits uint64
	AcksSent    uint64
	Queued      uint64
	DupsDropped uint64
}

// outState tracks one destination's outgoing stream.
type outState struct {
	nextSeq uint64 // next sequence number to assign
	base    uint64 // oldest unacknowledged seq
	// window holds unacknowledged and queued payloads, indexed from
	// base: window[0] has seq base.
	window [][]byte
	timer  proto.Timer
}

// inState tracks one source's incoming stream.
type inState struct {
	next uint64 // next expected seq
}

// common implements the machinery shared by both ARQ flavours; the
// window size is the only difference (1 = stop-and-wait).
type common struct {
	name    string
	window  int
	timeout time.Duration
	env     proto.Env
	down    proto.Down
	up      proto.Up
	out     map[ids.ProcID]*outState
	in      map[ids.ProcID]*inState
	stopped bool
	stats   Stats
	// malformed counts packets dropped by the defensive ingress
	// (decode failure or unknown kind) before any state mutation.
	malformed uint64
}

func newCommon(name string, window int, timeout time.Duration) *common {
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	return &common{
		name:    name,
		window:  window,
		timeout: timeout,
		out:     make(map[ids.ProcID]*outState),
		in:      make(map[ids.ProcID]*inState),
	}
}

// Init implements proto.Layer.
func (c *common) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("%s: nil wiring", c.name)
	}
	c.env, c.down, c.up = env, down, up
	return nil
}

// Stop implements proto.Layer.
func (c *common) Stop() {
	c.stopped = true
	for _, o := range c.out {
		if o.timer != nil {
			o.timer.Stop()
		}
	}
}

// Stats returns a copy of the counters.
func (c *common) Stats() Stats { return c.stats }

// InFlight returns how many frames are unacknowledged toward dst.
func (c *common) InFlight(dst ids.ProcID) int {
	o := c.out[dst]
	if o == nil {
		return 0
	}
	inFlight := int(o.nextSeq - o.base)
	if inFlight > len(o.window) {
		inFlight = len(o.window)
	}
	return inFlight
}

// Cast implements proto.Layer: a multicast over point-to-point ARQ is a
// reliable send to every other member (the sender loops its own copy
// back locally, preserving the group convention). The caller may reuse
// payload once Cast returns, and the layer above may keep what it is
// delivered, so the loopback delivers a copy: the one every window
// holds, which nothing writes.
func (c *common) Cast(payload []byte) error {
	buf := clone(payload)
	for _, p := range c.env.Members() {
		if p == c.env.Self() {
			continue
		}
		if err := c.enqueue(p, buf); err != nil {
			return err
		}
	}
	c.up.Deliver(c.env.Self(), buf)
	return nil
}

// Send implements proto.Layer: reliable FIFO unicast.
func (c *common) Send(dst ids.ProcID, payload []byte) error {
	return c.enqueue(dst, clone(payload))
}

// enqueue appends buf, a copy the layer owns, to dst's window.
func (c *common) enqueue(dst ids.ProcID, buf []byte) error {
	if c.stopped {
		return fmt.Errorf("%s: stopped", c.name)
	}
	o := c.out[dst]
	if o == nil {
		o = &outState{}
		c.out[dst] = o
	}
	o.window = append(o.window, buf)
	c.pump(dst, o)
	return nil
}

// clone returns a copy of payload the layer owns.
func clone(payload []byte) []byte {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	return buf
}

// pump transmits whatever the window permits.
func (c *common) pump(dst ids.ProcID, o *outState) {
	inFlight := int(o.nextSeq - o.base)
	for inFlight < c.window && int(o.nextSeq-o.base) < len(o.window) {
		seq := o.nextSeq
		payload := o.window[seq-o.base]
		o.nextSeq++
		inFlight++
		c.stats.Sent++
		c.transmit(dst, seq, payload)
	}
	if int(o.nextSeq-o.base) < len(o.window) {
		c.stats.Queued++
	}
	c.armTimer(dst, o)
}

func (c *common) transmit(dst ids.ProcID, seq uint64, payload []byte) {
	e := wire.GetEncoder()
	e.U8(kindData).Uvarint(seq)
	// The layer below consumes or copies the frame synchronously, so it
	// can ride a pooled encoder.
	_ = c.down.Send(dst, e.Frame(payload))
	wire.PutEncoder(e)
}

// armTimer (re)starts the retransmission timer while data is in flight.
func (c *common) armTimer(dst ids.ProcID, o *outState) {
	if o.timer != nil && o.timer.Active() {
		return
	}
	if o.base == o.nextSeq {
		return // nothing outstanding
	}
	o.timer = c.env.After(c.timeout, func() {
		if c.stopped {
			return
		}
		c.retransmit(dst, o)
	})
}

// retransmit resends the whole outstanding window (go-back-N semantics;
// with window 1 this is plain stop-and-wait retry).
func (c *common) retransmit(dst ids.ProcID, o *outState) {
	if o.base == o.nextSeq {
		return
	}
	for seq := o.base; seq < o.nextSeq; seq++ {
		c.stats.Retransmits++
		c.transmit(dst, seq, o.window[seq-o.base])
	}
	o.timer = nil
	c.armTimer(dst, o)
}

// sendAck sends one cumulative ack for a stream's current horizon.
func (c *common) sendAck(dst ids.ProcID, in *inState) {
	e := wire.GetEncoder()
	e.U8(kindAck).Uvarint(in.next)
	c.stats.AcksSent++
	_ = c.down.Send(dst, e.Bytes())
	wire.PutEncoder(e)
}

// Recv implements proto.Layer.
func (c *common) Recv(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	switch d.U8() {
	case kindData:
		seq := d.Uvarint()
		if d.Err() != nil {
			c.malformed++
			return
		}
		in := c.in[src]
		if in == nil {
			in = &inState{}
			c.in[src] = in
		}
		if seq == in.next {
			in.next++
			c.up.Deliver(src, d.Remaining())
		} else {
			c.stats.DupsDropped++
		}
		// Cumulative ack either way (a duplicate means our ack was
		// lost or the sender timed out early).
		c.sendAck(src, in)
	case kindAck:
		next := d.Uvarint()
		if d.Err() != nil {
			c.malformed++
			return
		}
		o := c.out[src]
		if o == nil || next <= o.base {
			return
		}
		if next > o.nextSeq {
			next = o.nextSeq
		}
		o.window = o.window[next-o.base:]
		o.base = next
		if o.timer != nil {
			o.timer.Stop()
			o.timer = nil
		}
		c.pump(src, o)
	default:
		c.malformed++
	}
}

// MalformedDropped returns how many packets the defensive ingress
// rejected (decode failure or unknown kind).
func (c *common) MalformedDropped() uint64 { return c.malformed }

// StopAndWait is the window-1 ARQ: one frame in flight per destination.
type StopAndWait struct {
	common
}

var _ proto.Layer = (*StopAndWait)(nil)

// NewStopAndWait creates a stop-and-wait layer. timeout <= 0 defaults
// to 50ms.
func NewStopAndWait(timeout time.Duration) *StopAndWait {
	return &StopAndWait{common: *newCommon("stopwait", 1, timeout)}
}

// GoBackN is the sliding-window ARQ with cumulative acks.
type GoBackN struct {
	common
}

var _ proto.Layer = (*GoBackN)(nil)

// NewGoBackN creates a go-back-N layer with the given window (>= 1;
// values < 1 default to 8). timeout <= 0 defaults to 50ms.
func NewGoBackN(window int, timeout time.Duration) *GoBackN {
	if window < 1 {
		window = 8
	}
	return &GoBackN{common: *newCommon("gobackn", window, timeout)}
}
