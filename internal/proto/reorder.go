package proto

// MaxSeqAhead bounds how far beyond its delivery horizon a Reorder lets an
// arriving sequence number claim to be. A legitimate stream only runs
// ahead by the messages actually in flight; a corrupted or forged seq far
// beyond that would park an entry the drain can never reach and make gap
// repair enumerate the whole range. Layers apply the same bound to the
// other places a peer announces a seq (heartbeats, tokens).
const MaxSeqAhead = 1 << 20

// Verdict is what Reorder.Push did with an arrival.
type Verdict uint8

const (
	// Accepted: delivered, or buffered behind a gap.
	Accepted Verdict = iota
	// Duplicate: already delivered, or already buffered.
	Duplicate
	// TooFarAhead: more than MaxSeqAhead past the next expected seq;
	// nothing was stored.
	TooFarAhead
)

// Reorder reassembles one densely numbered stream — seqs 0, 1, 2, … each
// delivered exactly once, in order — from arrivals in any order. It is
// the receive side of fifo's streams and of both total-order protocols.
// The zero value is an empty stream expecting seq 0.
type Reorder[V any] struct {
	next    uint64
	pending map[uint64]V // arrivals past a gap; nil until the first one
}

// Next returns the next seq to deliver: everything below it has been.
func (r *Reorder[V]) Next() uint64 { return r.next }

// Pending returns the number of arrivals buffered behind a gap.
func (r *Reorder[V]) Pending() int { return len(r.pending) }

// Buffered reports whether seq has arrived and waits behind a gap. Gap
// repair walks the seqs from Next up and asks for every one that is not.
func (r *Reorder[V]) Buffered(seq uint64) bool {
	_, ok := r.pending[seq]
	return ok
}

// Push offers arrival v with sequence number seq and hands deliver every
// value that thereby becomes deliverable, in order. The expected seq with
// nothing buffered — a stream arriving in order — goes straight to
// deliver without touching the map. deliver may re-enter Push.
func (r *Reorder[V]) Push(seq uint64, v V, deliver func(V)) Verdict {
	switch {
	case seq < r.next:
		return Duplicate
	case seq-r.next > MaxSeqAhead:
		return TooFarAhead
	case seq == r.next && len(r.pending) == 0:
		r.next++
		deliver(v)
	default:
		if _, dup := r.pending[seq]; dup {
			return Duplicate
		}
		if r.pending == nil {
			r.pending = make(map[uint64]V)
		}
		r.pending[seq] = v
	}
	for len(r.pending) > 0 {
		v, ok := r.pending[r.next]
		if !ok {
			break
		}
		delete(r.pending, r.next)
		r.next++
		deliver(v)
	}
	return Accepted
}
