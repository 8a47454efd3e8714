// Package fifo implements reliable FIFO multicast and unicast — the
// substrate both total-order protocols of the paper sit on. It provides
// exactly the guarantees the switching protocol assumes of its underlying
// protocols (§2): no spurious deliveries, at-most-once delivery, and —
// for liveness — exactly-once delivery even across message loss.
//
// Mechanism: per-stream sequence numbers with receiver-side reordering,
// NACK-based retransmission for gap repair, sender heartbeats for
// tail-loss detection, and cumulative acknowledgements for send-buffer
// garbage collection. A gap is NACKed when it is first seen; a resend
// tick retries lost NACKs and runs only while some stream has a gap. The
// ack and heartbeat ticks run for the layer's whole life.
package fifo

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Packet kinds on the wire.
const (
	kindCast      uint8 = iota + 1 // multicast data: seq, payload
	kindSend                       // unicast data: seq, payload
	kindNack                       // repair request: stream kind, seq
	kindAck                        // cumulative acks: castNext, sendNext
	kindHeartbeat                  // sender's next cast seq (tail-loss probe)
)

// Config configures a fifo layer. It has no fields: the reliability
// machinery runs on the fixed intervals below.
type Config struct{}

// The ticks of the reliability machinery. Each fires on a grid of its
// interval from Init.
//
// The resend tick runs on demand: the NACK of a newly seen gap arms it
// for its next grid instant, and it re-arms only while a gap remains, so
// a loss-free run never fires it. A skipped tick would have sent nothing
// and drawn no randomness, so skipping it reorders nothing. An arm made
// on demand does queue behind the events scheduled for its instant
// before the gap opened, where a periodic arm queued ahead of them; that
// changes an execution only when the tick then NACKs, that is, under
// loss.
//
// The ack and heartbeat ticks stay periodic. Both do work at instants
// other events share: made on demand, each alone moved paper_switch's
// median latency, from 21.685 ms to 21.28 ms (heartbeat) or 21.40 ms
// (ack). Arming either on demand needs an argument that it keeps every
// virtual-time number.
const (
	// resendInterval is how often a receiver re-requests missing
	// packets while it has gaps.
	resendInterval = 20 * time.Millisecond
	// ackInterval is how often a receiver considers sending cumulative
	// acks (which garbage-collect the sender's retransmission buffers).
	// A tick acks peer p only when the ack says something new — its
	// (castNext, sendNext) differs from the last ack sent to p, so the
	// sender can free data — or p asked for one: a heartbeat from p
	// arrived since that ack. A sender heartbeats only while it holds
	// unacknowledged data, so a lost ack is re-sent on the next tick,
	// and an idle stream costs no frames at all.
	ackInterval = 50 * time.Millisecond
	// heartbeatInterval is how often a sender with unacknowledged data
	// announces its stream position so receivers can detect tail loss.
	heartbeatInterval = 25 * time.Millisecond
)

// Stats counts protocol activity, exported for tests and benchmarks.
type Stats struct {
	CastsSent      uint64
	SendsSent      uint64
	Retransmits    uint64
	NacksSent      uint64
	DupsSuppressed uint64
}

// Layer is one process's instance of the protocol.
type Layer struct {
	env  proto.Env
	down proto.Down
	up   proto.Up
	// members caches the ring order at Init: the periodic ticks walk it
	// on every firing. (simenv and ptest.FakeEnv return one shared slice
	// from Env.Members, but the goroutine runtime copies on every call.)
	members []ids.ProcID

	// castOut is the outgoing multicast stream: the unacked casts, kept
	// for repair, and the next seq to assign.
	castOut retransmitRing
	// spare recycles the buffers of acked packets, of every outgoing
	// stream, into the next data frames, and holds the copies of arrivals
	// that wait behind a gap. Acks, NACKs and heartbeats are built in
	// control instead.
	spare   wire.Spares
	control [1 + 2*binary.MaxVarintLen64]byte
	// peers holds the per-peer state, indexed by ProcID and sized at Init
	// to cover every member. A packet from outside it is malformed.
	peers []peer

	timers []proto.Timer
	// resend is the resend tick's handle, armed only while some incoming
	// stream has a gap: nil until the first gap, then re-armed in place.
	// start is the Init time its grid counts from.
	resend  proto.Timer
	start   time.Duration
	stopped bool
	stats   Stats
	// malformed counts packets dropped by the defensive ingress
	// (decode failure or unknown kind) before any state mutation.
	malformed uint64
}

var _ proto.Layer = (*Layer)(nil)

// New creates a fifo layer.
func New(Config) *Layer {
	return &Layer{}
}

// peer is everything one process keeps about one peer. The zero value is
// a peer nothing has been exchanged with: its incoming streams expect
// seq 0 and have no gaps.
type peer struct {
	// castIn and sendIn reassemble the peer's multicast stream and its
	// unicast stream to this process.
	castIn, sendIn reorderBuf
	// sendOut is the unicast stream to the peer.
	sendOut retransmitRing
	// castAcked is the peer's latest cumulative ack of castOut.
	castAcked uint64
	// acked is what ackTick last told the peer, and whether the peer has
	// heartbeated since.
	acked ackMark
}

// retransmitRing is one outgoing stream's retransmission buffer. It holds
// the packets of seqs [base, base+n) — those sent and not yet acked — in
// a power-of-two slice indexed by seq, reused as acks free it. base+n is
// the next seq to assign.
type retransmitRing struct {
	buf  [][]byte
	base uint64
	n    int
}

// next returns the next seq to assign.
func (r *retransmitRing) next() uint64 { return r.base + uint64(r.n) }

// add retains pkt under seq next().
func (r *retransmitRing) add(pkt []byte) {
	if r.n == len(r.buf) {
		grown := make([][]byte, max(8, 2*len(r.buf)))
		for seq := r.base; seq < r.next(); seq++ {
			grown[seq&uint64(len(grown)-1)] = r.at(seq)
		}
		r.buf = grown
	}
	r.buf[r.next()&uint64(len(r.buf)-1)] = pkt
	r.n++
}

// at returns the packet retained under seq, which must be held.
func (r *retransmitRing) at(seq uint64) []byte { return r.buf[seq&uint64(len(r.buf)-1)] }

// get returns the packet retained under seq, or nil if it was released or
// never sent.
func (r *retransmitRing) get(seq uint64) []byte {
	if seq < r.base || seq >= r.next() {
		return nil
	}
	return r.at(seq)
}

// release drops every packet below seq, clearing its slot.
func (r *retransmitRing) release(seq uint64) {
	for ; r.n > 0 && r.base < seq; r.base++ {
		r.buf[r.base&uint64(len(r.buf)-1)] = nil
		r.n--
	}
}

// ackMark is the last cumulative ack sent to one peer (zero before the
// first: an ack of (0, 0) tells a sender nothing) and whether the peer
// has asked for a fresh one since.
type ackMark struct {
	castNext, sendNext uint64
	solicited          bool
}

// reorderBuf reassembles one incoming FIFO stream.
type reorderBuf struct {
	proto.Reorder[[]byte]
	// highest is the largest seq we know exists (from data or
	// heartbeats); used to detect tail gaps.
	highest uint64
	hasHigh bool
}

// sawSeq raises the stream's known horizon to seq.
func (r *reorderBuf) sawSeq(seq uint64) {
	if !r.hasHigh || seq > r.highest {
		r.highest, r.hasHigh = seq, true
	}
}

// Init implements proto.Layer.
func (l *Layer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("fifo: nil wiring")
	}
	l.env, l.down, l.up = env, down, up
	l.members = env.Members()
	size := 0
	for _, m := range l.members {
		size = max(size, int(m)+1)
	}
	l.peers = make([]peer, size)
	for i := range l.peers {
		l.peers[i].castIn.SetKeeper(proto.SpareKeeper{Spare: &l.spare})
		l.peers[i].sendIn.SetKeeper(proto.SpareKeeper{Spare: &l.spare})
	}
	l.start = env.Now()
	l.scheduleTick(ackInterval, l.ackTick)
	l.scheduleTick(heartbeatInterval, l.heartbeatTick)
	return nil
}

// scheduleTick arms a self-rearming timer. The callback is built once
// and re-arms its own handle, so a steady-state tick allocates nothing.
func (l *Layer) scheduleTick(d time.Duration, fn func()) {
	var t proto.Timer
	t = l.env.After(d, func() {
		if l.stopped {
			return
		}
		fn()
		if l.stopped {
			return
		}
		t.Reset(d)
	})
	l.timers = append(l.timers, t)
}

// Spares returns the layer's buffer stack, so that a test can overwrite
// the buffers it holds spare.
func (l *Layer) Spares() *wire.Spares { return &l.spare }

// Stop implements proto.Layer.
func (l *Layer) Stop() {
	l.stopped = true
	for _, t := range l.timers {
		t.Stop()
	}
	l.timers = nil
}

// Stats returns a copy of the counters.
func (l *Layer) Stats() Stats { return l.stats }

// Cast implements proto.Layer: reliable FIFO multicast.
func (l *Layer) Cast(payload []byte) error {
	pkt := l.dataFrame(kindCast, l.castOut.next(), payload)
	l.castOut.add(pkt)
	l.stats.CastsSent++
	return l.down.Cast(pkt)
}

// Send implements proto.Layer: reliable FIFO unicast to a member.
func (l *Layer) Send(dst ids.ProcID, payload []byte) error {
	p := l.peer(dst)
	if p == nil {
		return fmt.Errorf("fifo: send to non-member %v", dst)
	}
	pkt := l.dataFrame(kindSend, p.sendOut.next(), payload)
	p.sendOut.add(pkt)
	l.stats.SendsSent++
	return l.down.Send(dst, pkt)
}

// dataFrame builds a data frame the layer owns (it is retained in the
// retransmission buffers until acked) in a spare buffer: a recycled one
// in steady state, else one right-sized allocation.
func (l *Layer) dataFrame(kind uint8, seq uint64, payload []byte) []byte {
	return appendData(l.spare.Get(12+len(payload)), kind, seq, payload)
}

// appendData appends the data frame {kind, seq, payload} to dst.
func appendData(dst []byte, kind uint8, seq uint64, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, seq)
	return append(dst, payload...)
}

// Recv implements proto.Layer.
func (l *Layer) Recv(src ids.ProcID, pkt []byte) {
	p := l.peer(src)
	if p == nil {
		l.malformed++
		return
	}
	d := wire.NewDecoder(pkt)
	kind := d.U8()
	switch kind {
	case kindCast:
		seq := d.Uvarint()
		if d.Err() != nil {
			l.malformed++
			return
		}
		l.onData(&p.castIn, src, kindCast, seq, d.Remaining())
	case kindSend:
		seq := d.Uvarint()
		if d.Err() != nil {
			l.malformed++
			return
		}
		l.onData(&p.sendIn, src, kindSend, seq, d.Remaining())
	case kindNack:
		stream := d.U8()
		seq := d.Uvarint()
		if d.Err() != nil || (stream != kindCast && stream != kindSend) {
			l.malformed++
			return
		}
		l.onNack(src, p, stream, seq)
	case kindAck:
		castNext := d.Uvarint()
		sendNext := d.Uvarint()
		if d.Err() != nil {
			l.malformed++
			return
		}
		l.onAck(p, castNext, sendNext)
	case kindHeartbeat:
		stream := d.U8()
		next := d.Uvarint()
		if d.Err() != nil || (stream != kindCast && stream != kindSend) {
			l.malformed++
			return
		}
		l.onHeartbeat(src, p, stream, next)
	default:
		l.malformed++
	}
}

// MalformedDropped returns how many packets the defensive ingress
// rejected (non-member source, decode failure or unknown kind).
func (l *Layer) MalformedDropped() uint64 { return l.malformed }

// peer returns id's entry in the peer table, or nil if id is not in it.
func (l *Layer) peer(id ids.ProcID) *peer {
	if uint(id) >= uint(len(l.peers)) {
		return nil
	}
	return &l.peers[id]
}

// onData takes an arrival on src's stream r (of kind stream) and delivers
// any in-order run it completes. A seq absurdly far ahead
// (proto.MaxSeqAhead: adversarial or corrupted) is dropped as malformed
// before any state mutation.
func (l *Layer) onData(r *reorderBuf, src ids.ProcID, stream uint8, seq uint64, payload []byte) {
	switch r.Push(seq, payload, func(p []byte) { l.up.Deliver(src, p) }) {
	case proto.Duplicate:
		l.stats.DupsSuppressed++
		return
	case proto.TooFarAhead:
		l.malformed++
		return
	}
	r.sawSeq(seq)
	// Immediate gap repair: if this arrival exposed a hole, ask now
	// rather than waiting for the resend tick.
	if r.Pending() > 0 {
		l.requestRepairs(src, stream, r)
	}
}

// requestRepairs NACKs every missing seq of src's stream r, of kind
// stream, and arms the resend tick, if it is idle, to retry them at its
// next grid instant.
func (l *Layer) requestRepairs(src ids.ProcID, stream uint8, r *reorderBuf) {
	if l.nackGaps(src, stream, r) && !l.stopped && (l.resend == nil || !l.resend.Active()) {
		d := resendInterval - (l.env.Now()-l.start)%resendInterval
		if l.resend == nil {
			l.resend = l.env.After(d, l.resendTick)
			l.timers = append(l.timers, l.resend)
		} else {
			l.resend.Reset(d)
		}
	}
}

// nackGaps NACKs the missing seqs of src's stream r, of kind stream:
// those from the next expected through the known horizon that are not
// buffered, in ascending order. It reports whether r has a gap.
func (l *Layer) nackGaps(src ids.ProcID, stream uint8, r *reorderBuf) bool {
	if !r.hasHigh || r.Next() > r.highest {
		return false
	}
	for seq := r.Next(); seq <= r.highest; seq++ {
		if r.Buffered(seq) {
			continue
		}
		e := wire.EncodeInto(l.control[:])
		l.stats.NacksSent++
		// Best effort: the resend tick runs while the gap is open, and
		// NACKs it again if this one is lost.
		_ = l.down.Send(src, e.U8(kindNack).U8(stream).Uvarint(seq).Bytes())
	}
	return true
}

// onNack retransmits the requested packet to the requester.
func (l *Layer) onNack(src ids.ProcID, p *peer, stream uint8, seq uint64) {
	var pkt []byte
	switch stream {
	case kindCast:
		pkt = l.castOut.get(seq)
	case kindSend:
		pkt = p.sendOut.get(seq)
	}
	if pkt == nil {
		return // GCed or never existed
	}
	l.stats.Retransmits++
	_ = l.down.Send(src, pkt)
}

// onAck garbage-collects the packets peer p acknowledged.
func (l *Layer) onAck(p *peer, castNext, sendNext uint64) {
	p.castAcked = max(p.castAcked, castNext)
	// A cast packet is reclaimable once every member — including this
	// process's own loopback stream, whose delivery can also be lost —
	// has progressed past it.
	self := l.env.Self()
	acked := min(l.castOut.next(), l.peers[self].castIn.Next())
	for _, m := range l.members {
		if m != self {
			acked = min(acked, l.peers[m].castAcked)
		}
	}
	l.release(&l.castOut, acked)
	l.release(&p.sendOut, sendNext)
}

// release frees out's packets below seq and gives their buffers back to
// the spare stack: an acked packet is referenced by nothing else, since
// every Down it was handed to copied what it kept.
func (l *Layer) release(out *retransmitRing, seq uint64) {
	for s := out.base; s < seq && s < out.next(); s++ {
		l.spare.Put(out.at(s))
	}
	out.release(seq)
}

// onHeartbeat learns the sender's stream horizon and repairs tail loss.
// stream says which of the peer's streams the horizon describes.
func (l *Layer) onHeartbeat(src ids.ProcID, p *peer, stream uint8, next uint64) {
	if next == 0 {
		return
	}
	r := &p.castIn
	if stream == kindSend {
		r = &p.sendIn
	}
	top := next - 1
	if top > r.Next()+proto.MaxSeqAhead {
		l.malformed++
		return // absurd horizon jump: adversarial or corrupted seq
	}
	r.sawSeq(top)
	// The sender still holds unacked data: answer on the next ack tick
	// even if the ack repeats one it may have lost.
	p.acked.solicited = true
	l.requestRepairs(src, stream, r)
}

// resendTick re-requests all outstanding gaps (NACKs may be lost too)
// and re-arms while any remains. It re-arms after its last NACK, as a
// periodic tick would, so the arm keeps its place in call order.
// Peers are visited in ring order, so the NACKs go out in the same order
// on every run and the network's seeded fault stream stays in step.
func (l *Layer) resendTick() {
	if l.stopped {
		return
	}
	open := false
	for _, src := range l.members {
		p := &l.peers[src]
		open = l.nackGaps(src, kindCast, &p.castIn) || open
		open = l.nackGaps(src, kindSend, &p.sendIn) || open
	}
	if open && !l.stopped {
		l.resend.Reset(resendInterval)
	}
}

// ackTick sends a cumulative ack to every peer it says something new to
// or that asked for one (see ackInterval), in ring order (determinism,
// as in resendTick).
func (l *Layer) ackTick() {
	self := l.env.Self()
	for _, id := range l.members {
		if id == self {
			continue
		}
		p := &l.peers[id]
		m := ackMark{castNext: p.castIn.Next(), sendNext: p.sendIn.Next()}
		if p.acked == m {
			continue // nothing new, and not asked for
		}
		p.acked = m
		e := wire.EncodeInto(l.control[:])
		_ = l.down.Send(id, e.U8(kindAck).Uvarint(m.castNext).Uvarint(m.sendNext).Bytes())
	}
}

// heartbeatTick announces stream horizons while data is unacked, so
// receivers can detect tail loss on both multicast and unicast streams.
func (l *Layer) heartbeatTick() {
	if l.castOut.n > 0 {
		e := wire.EncodeInto(l.control[:])
		_ = l.down.Cast(e.U8(kindHeartbeat).U8(kindCast).Uvarint(l.castOut.next()).Bytes())
	}
	for _, dst := range l.members {
		out := &l.peers[dst].sendOut
		if out.n == 0 {
			continue
		}
		e := wire.EncodeInto(l.control[:])
		_ = l.down.Send(dst, e.U8(kindHeartbeat).U8(kindSend).Uvarint(out.next()).Bytes())
	}
}
