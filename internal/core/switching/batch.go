package switching

import (
	"encoding/binary"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// This file is the egress frame batcher: the "one wire write per peer
// per service tick" half of the zero-alloc hot path. It sits between
// the multiplex and the envelope, so every mux frame generated within
// one event-loop step — the overload layer draining several queued
// casts in one service tick, a sub-protocol emitting data plus acks —
// coalesces into a single sealed transport write per destination:
// one MAC per batch instead of one per frame.
//
// Batch frame layout: [magic 0xB3][count uvarint][count × (len uvarint,
// mux frame)]. The magic cannot collide with a mux channel header:
// channel ids in this repository are small (control 0, detector 1,
// protocols 2+n), so their uvarint first byte never has the high bit
// 0xB3 carries.
//
// Three rules keep the batcher invisible to everything above it:
//
//   - Control frames (the token channel) and failure-detector
//     heartbeats bypass batching entirely, one frame per wire write:
//     the switch state machine and the suspicion timeouts must never
//     be reordered behind a data flush.
//   - A flush never straddles a key roll: setSendEpoch and the
//     maxAuthEpoch advance flush the pending batch first, so all
//     frames in one batch were accumulated under one sealing epoch
//     (the epoch-flush rule).
//   - The receiver unpacks inside the trust boundary (after the
//     envelope verified) and routes every inner frame through the same
//     per-frame overload admission an unbatched arrival takes, so the
//     conservation ledger still counts application frames one by one.
//
// Determinism: accumulation order is event order, per-destination
// groups flush in first-use order, and the flush point is env.After(0)
// — the DES fires equal-time events in scheduling order — so batching
// changes bytes only in the documented way (grouping), never their
// order across runs.

// batchMagic tags a multi-frame transport payload. Reserved: mux
// channel ids must stay below 128 so their header byte can never alias
// it.
const batchMagic = 0xB3

// batcher coalesces mux frames into batch frames per destination. It
// implements proto.Down and wraps the sealing transport (or the raw
// transport when Defense is nil).
type batcher struct {
	s    *Switch
	down proto.Down
	max  int

	// cast accumulates broadcast frames; sends accumulates per-peer
	// frames in first-use order (a slice, not a map: flush order must
	// not depend on map iteration — the PR 2 arq bug class).
	cast  batchAcc
	sends []dstAcc
	armed bool
	// timer is the flush timer's one handle, re-armed by arm.
	timer proto.Timer

	// flushFn is the arm callback, bound once so scheduling a flush
	// does not allocate a fresh closure per event-loop step.
	flushFn func()
	// spare holds the buffers flush builds batch frames in.
	spare wire.Spares
}

type dstAcc struct {
	dst ids.ProcID
	acc batchAcc
}

// batchAcc holds len-prefixed frames awaiting a flush. The buffer is
// reused across flushes, so steady-state accumulation allocates
// nothing.
type batchAcc struct {
	buf   []byte
	count int
}

func (a *batchAcc) add(frame []byte) {
	a.buf = binary.AppendUvarint(a.buf, uint64(len(frame)))
	a.buf = append(a.buf, frame...)
	a.count++
}

func (a *batchAcc) reset() {
	a.buf = a.buf[:0]
	a.count = 0
}

func newBatcher(s *Switch, down proto.Down, max int) *batcher {
	b := &batcher{s: s, down: down, max: max}
	b.flushFn = func() {
		b.armed = false
		b.flush()
	}
	return b
}

// bypassBatch reports whether a mux frame must skip the batcher: the
// token channel and failure-detector heartbeats keep their direct,
// one-frame-per-write path (frames whose channel header does not decode also
// pass through — the receiving demultiplexer owns malformed
// accounting).
func bypassBatch(payload []byte) bool {
	d := wire.NewDecoder(payload)
	ch := d.Channel()
	return d.Err() != nil || ch == ids.ControlChannel || ch == detectorChannel
}

func (b *batcher) Cast(payload []byte) error {
	if bypassBatch(payload) {
		return b.down.Cast(payload)
	}
	b.cast.add(payload)
	if b.cast.count >= b.max {
		b.flush()
		return nil
	}
	b.arm()
	return nil
}

func (b *batcher) Send(dst ids.ProcID, payload []byte) error {
	if bypassBatch(payload) {
		return b.down.Send(dst, payload)
	}
	acc := b.accFor(dst)
	acc.add(payload)
	if acc.count >= b.max {
		b.flush()
		return nil
	}
	b.arm()
	return nil
}

// accFor returns dst's accumulator, appending a new one on first use.
// Linear scan: the ring is small, and slice order is what makes the
// flush deterministic.
func (b *batcher) accFor(dst ids.ProcID) *batchAcc {
	for i := range b.sends {
		if b.sends[i].dst == dst {
			return &b.sends[i].acc
		}
	}
	b.sends = append(b.sends, dstAcc{dst: dst})
	return &b.sends[len(b.sends)-1].acc
}

// arm schedules the flush at the end of the current virtual instant.
// After(0) fires after the running event completes, at the same
// timestamp, in scheduling order — the deterministic coalescing point.
func (b *batcher) arm() {
	if b.armed {
		return
	}
	b.armed = true
	b.timer = proto.Rearm(b.s.env, b.timer, 0, b.flushFn)
}

// flush emits every pending batch: the broadcast group first, then the
// per-peer groups in first-use order. Called from the arm timer, from
// a full accumulator, and from the key-roll sites (setSendEpoch,
// maxAuthEpoch advance) so a batch never straddles sealing epochs.
// Flushing with nothing pending is a no-op.
func (b *batcher) flush() {
	if b.s.stopped {
		return
	}
	if b.cast.count > 0 {
		pkt := b.frame(&b.cast)
		_ = b.down.Cast(pkt)
		b.spare.Put(pkt)
		b.cast.reset()
	}
	for i := range b.sends {
		acc := &b.sends[i].acc
		if acc.count == 0 {
			continue
		}
		pkt := b.frame(acc)
		_ = b.down.Send(b.sends[i].dst, pkt)
		b.spare.Put(pkt)
		acc.reset()
	}
}

// frame builds acc's batch frame in a buffer from the spares.
func (b *batcher) frame(acc *batchAcc) []byte {
	return appendBatch(b.spare.Get(wire.MaxHeader+len(acc.buf)), acc)
}

// appendBatch appends the batch frame header and accumulated entries
// to dst.
func appendBatch(dst []byte, acc *batchAcc) []byte {
	dst = append(dst, batchMagic)
	dst = binary.AppendUvarint(dst, uint64(acc.count))
	return append(dst, acc.buf...)
}

// isBatchFrame reports whether a verified transport payload is a batch
// frame. Only meaningful when batching is enabled: the magic byte is
// reserved then (see batchMagic).
func isBatchFrame(pkt []byte) bool {
	return len(pkt) > 0 && pkt[0] == batchMagic
}

// recvBatch validates and unpacks a batch frame, routing each inner
// mux frame exactly as an unbatched arrival (per-frame overload
// admission included). The structure is validated in full before any
// frame is routed, so a corrupt batch is all-or-nothing: it is counted
// malformed and dropped without partial delivery.
func (s *Switch) recvBatch(src ids.ProcID, pkt []byte) {
	body := pkt[1:]
	count, off := binary.Uvarint(body)
	// Each entry costs at least one length byte, so count can never
	// exceed the remaining bytes in a well-formed batch.
	if off <= 0 || count == 0 || count > uint64(len(body)-off) {
		s.countMalformed(src, obs.MalformedDecode)
		return
	}
	// First pass: structure only.
	walk := off
	for i := uint64(0); i < count; i++ {
		ln, n := binary.Uvarint(body[walk:])
		if n <= 0 || ln > uint64(len(body)-walk-n) {
			s.countMalformed(src, obs.MalformedDecode)
			return
		}
		walk += n + int(ln)
	}
	if walk != len(body) {
		s.countMalformed(src, obs.MalformedDecode)
		return
	}
	// Second pass: route views of the verified frame, borrowed for the
	// call like the frame itself: the ingress queue and the layers above
	// copy what they keep, and nothing up here writes to one.
	for i := uint64(0); i < count; i++ {
		ln, n := binary.Uvarint(body[off:])
		off += n
		s.recvFrame(src, body[off:off+int(ln)])
		off += int(ln)
	}
}
