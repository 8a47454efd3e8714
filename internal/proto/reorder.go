package proto

import (
	"repro/internal/ids"
	"repro/internal/wire"
)

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

// Keeper copies the arrivals a Reorder buffers out of the frames they
// were borrowed from (see Up): Keep returns v with its bytes copied into
// the owner's buffers, and Free gives those buffers back once the kept
// value has been delivered.
type Keeper[V any] interface {
	Keep(v V) V
	Free(v V)
}

// Reorder reassembles one densely numbered stream — seqs 0, 1, 2, … each
// delivered exactly once, in order — from arrivals in any order. It is
// the receive side of fifo's streams and of both total-order protocols.
// The zero value is an empty stream expecting seq 0. A stream of values
// that hold borrowed bytes is given a Keeper (SetKeeper) before the first
// Push; without one, arrivals are stored as they are.
type Reorder[V any] struct {
	next    uint64
	pending map[uint64]V // arrivals past a gap; nil until the first one
	keeper  Keeper[V]
}

// SetKeeper installs the Keeper that copies an arrival Push buffers.
func (r *Reorder[V]) SetKeeper(k Keeper[V]) { r.keeper = k }

// SpareKeeper is the Keeper of a stream of byte payloads: it copies an
// arrival into a buffer from its owner's spares and gives it back.
type SpareKeeper struct{ Spare *wire.Spares }

func (k SpareKeeper) Keep(p []byte) []byte { return k.Spare.Copy(p) }
func (k SpareKeeper) Free(p []byte)        { k.Spare.Put(p) }

// Sourced is a payload and the member it originated at: what the
// total-order protocols reassemble.
type Sourced struct {
	Origin  ids.ProcID
	Payload []byte
}

// SourcedKeeper is SpareKeeper for a stream of Sourced payloads.
type SourcedKeeper struct{ Spare *wire.Spares }

func (k SourcedKeeper) Keep(m Sourced) Sourced {
	m.Payload = k.Spare.Copy(m.Payload)
	return m
}

func (k SourcedKeeper) Free(m Sourced) { k.Spare.Put(m.Payload) }

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
// deliver without touching the map, or a copy. An arrival that must wait
// behind a gap is the one thing Push keeps past the call: it stores the
// keeper's copy of v, and frees it when deliver returns. deliver may
// re-enter Push.
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
		if seq == r.next {
			// Expected, with later arrivals waiting: deliver it as it
			// came, then drain the run it completes.
			r.next++
			deliver(v)
			break
		}
		if r.pending == nil {
			r.pending = make(map[uint64]V)
		}
		if r.keeper != nil {
			v = r.keeper.Keep(v)
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
		if r.keeper != nil {
			r.keeper.Free(v)
		}
	}
	return Accepted
}
