package wire

import "sync"

// This file holds the buffers under the per-message hot path. One rule
// makes them reusable: a payload that crosses a layer boundary, up or
// down, is borrowed for the call (package proto). To keep it, copy it
// into your Spares.
//
// Transient frames — a header encode, an envelope seal — are handed on
// and forgotten: whoever keeps one copies it, so the buffer is free
// again when the call returns. That is the lifetime sync.Pool is for.
// Anything obtained from a pooled encoder (Bytes, Frame) or a pooled
// buffer must be handed on *before* the Put, and never retained.
//
// Kept frames — a retransmission copy waiting for its ack, a cast
// waiting for the token or for its service tick, an arrival waiting
// behind a gap or for its epoch — outlive the call and belong to one
// layer until that layer lets them go. Spares recycles those: the layer
// takes a buffer when it copies a frame in, and gives it back once it
// is done with it. A frame a layer hands up or down in the meantime is
// borrowed for the call, so recycling never changes a byte anyone else
// holds.

// maxPooled bounds the capacity of buffers kept by the pools. Anything
// larger (a one-off giant frame) is dropped for the GC instead of
// pinning its memory in the pool forever.
const maxPooled = 64 << 10

var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 512)} },
}

// GetEncoder returns a pooled encoder, empty and ready to append.
// Return it with PutEncoder once the frame it built has been handed
// downstream.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// PutEncoder returns an encoder to the pool. The caller must not touch
// the encoder — or any slice obtained from it — afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > maxPooled {
		return
	}
	encoderPool.Put(e)
}

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a pooled zero-length byte slice (behind a pointer, to
// keep the Put path allocation-free) for append-style builders such as
// AuthSealer.SealTo and SealAuthTo. Typical use:
//
//	bp := wire.GetBuf()
//	pkt := sealer.SealTo(*bp, payload)
//	... hand pkt downstream ...
//	*bp = pkt[:0] // keep any growth
//	wire.PutBuf(bp)
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a buffer to the pool, truncated for the next user.
func PutBuf(b *[]byte) {
	if cap(*b) > maxPooled {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Spares is a small owner-local stack of spare byte buffers for frames a
// layer keeps for a while (see the header comment). It is not safe for
// concurrent use: each layer instance owns its own, as it owns the
// frames. The zero value is an empty stack.
//
// Get reuses only the most recently returned buffer, and drops it when
// it is too small, so the stack never holds more buffers than its owner
// once held at one time: a buffer joins it only by coming back from the
// owner, and a new one is made only when the stack is empty. A new
// buffer is as large as the largest frame the owner has asked for (up to
// maxPooled), so an owner whose frames come in mixed sizes — a data
// frame after an ack — stops dropping buffers once it has seen its
// largest.
type Spares struct {
	bufs [][]byte
	size int
}

// Get returns a zero-length buffer with capacity at least n: the most
// recently returned one if it is large enough, otherwise a new one.
func (s *Spares) Get(n int) []byte {
	if n > s.size && n <= maxPooled {
		s.size = n
	}
	if k := len(s.bufs) - 1; k >= 0 {
		b := s.bufs[k]
		s.bufs[k] = nil
		s.bufs = s.bufs[:k]
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]byte, 0, max(n, s.size))
}

// Copy returns a copy of p in a buffer from Get: how a layer keeps a
// payload it was lent.
func (s *Spares) Copy(p []byte) []byte { return append(s.Get(len(p)), p...) }

// Put takes back a buffer its owner no longer references — nor does
// anything it handed the buffer to. Buffers above maxPooled are left to
// the collector.
func (s *Spares) Put(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooled {
		return
	}
	s.bufs = append(s.bufs, b[:0])
}

// Len returns the number of spare buffers held.
func (s *Spares) Len() int { return len(s.bufs) }
