package wire

// This file holds the one buffer rule of the message path. A payload
// that crosses a layer boundary, up or down, is borrowed for the call
// (package proto). Every buffer a layer builds a frame in, or keeps a
// frame in, comes from that layer's own Spares and goes back to it:
//
//   - a transient frame (a header in front of a payload, an envelope
//     seal, a batch) goes back as soon as the hand-off that lends it
//     returns;
//   - a kept frame (a retransmission copy waiting for its ack, a cast
//     waiting for the token or for its service tick, an arrival waiting
//     behind a gap or for its epoch) goes back once the layer lets it
//     go.
//
// A header-only control frame (an ack, a NACK, a token pass) may be
// built in a fixed array in the owner instead; see EncodeInto.
//
// There is no process-wide pool. Each member's stack runs on one event
// loop, so a layer's Spares is only ever touched by one goroutine. A
// Spares hands buffers out last-in first-out, and a buffer lent out is
// off the stack, so a call that re-enters the owner while one of its
// frames is lent gets a buffer of its own and cannot overwrite the
// outer frame.

// maxSpare bounds the capacity of the buffers a Spares keeps. Anything
// larger (a one-off giant frame) is left to the collector instead of
// pinning its memory for the owner's lifetime.
const maxSpare = 64 << 10

// spareSlots is how many buffers a Spares holds in place, before it
// needs a slice of its own: most owners never hold more, so a new
// owner's bookkeeping allocates nothing.
const spareSlots = 4

// Spares is a small owner-local stack of spare byte buffers (see the
// header comment). It is not safe for concurrent use: each layer
// instance owns its own, as it owns the frames. The zero value is an
// empty stack.
//
// Get reuses only the most recently returned buffer, and drops it when
// it is too small, so the stack never holds more buffers than its owner
// once held at one time: a buffer joins it only by coming back from the
// owner, and a new one is made only when the stack is empty. A new
// buffer is as large as the largest frame the owner has asked for (up to
// maxSpare), so an owner whose frames come in mixed sizes (a data frame
// after an ack) stops dropping buffers once it has seen its largest.
type Spares struct {
	few  [spareSlots][]byte // the bottom of the stack
	more [][]byte           // the rest of it, above few
	n    int
	size int
}

// Get returns a zero-length buffer with capacity at least n: the most
// recently returned one if it is large enough, otherwise a new one.
func (s *Spares) Get(n int) []byte {
	if n > s.size && n <= maxSpare {
		s.size = n
	}
	if s.n > 0 {
		s.n--
		var b []byte
		if s.n < spareSlots {
			b, s.few[s.n] = s.few[s.n], nil
		} else {
			k := len(s.more) - 1
			b, s.more[k] = s.more[k], nil
			s.more = s.more[:k]
		}
		if cap(b) >= n {
			return b[:0]
		}
	}
	// Append rounds the capacity up to the allocator's size class, so a
	// slightly longer frame later still fits the memory already paid for.
	return append([]byte(nil), make([]byte, max(n, s.size))...)[:0]
}

// Copy returns a copy of p in a buffer from Get: how a layer keeps a
// payload it was lent.
func (s *Spares) Copy(p []byte) []byte { return append(s.Get(len(p)), p...) }

// Put takes back a buffer its owner no longer references, nor does
// anything it handed the buffer to. Buffers above maxSpare are left to
// the collector.
func (s *Spares) Put(b []byte) {
	if cap(b) == 0 || cap(b) > maxSpare {
		return
	}
	if s.n < spareSlots {
		s.few[s.n] = b[:0]
	} else {
		s.more = append(s.more, b[:0])
	}
	s.n++
}

// Len returns the number of spare buffers held.
func (s *Spares) Len() int { return s.n }
