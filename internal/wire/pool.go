package wire

import "sync"

// This file is the pooled buffer layer under the per-message hot path.
// Every frame a stack sends used to allocate at each layer boundary
// (header encode, envelope seal); since every transport in this
// repository copies payloads on send, those buffers die microseconds
// after they are built — exactly the lifetime sync.Pool is for. The
// contract at every call site is the same: anything obtained from a
// pooled encoder (Bytes, Frame) or a pooled buffer must be handed
// downstream *before* the Put, and never retained.

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
