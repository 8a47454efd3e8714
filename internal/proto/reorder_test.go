package proto

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestReorderPush drives one stream through a script of arrivals. Every
// arrival's value is its seq, so the delivered column is both what came
// out and in what order.
func TestReorderPush(t *testing.T) {
	type step struct {
		seq       uint64
		verdict   Verdict
		delivered []uint64 // by this Push
		pending   int      // buffered after it
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"in order", []step{
			{0, Accepted, []uint64{0}, 0},
			{1, Accepted, []uint64{1}, 0},
			{2, Accepted, []uint64{2}, 0},
			{3, Accepted, []uint64{3}, 0},
		}},
		{"gap then fill", []step{
			{0, Accepted, []uint64{0}, 0},
			{2, Accepted, nil, 1},
			{4, Accepted, nil, 2},
			{1, Accepted, []uint64{1, 2}, 1},
			{3, Accepted, []uint64{3, 4}, 0},
			{5, Accepted, []uint64{5}, 0},
		}},
		{"duplicate below and inside the window", []step{
			{0, Accepted, []uint64{0}, 0},
			{0, Duplicate, nil, 0},
			{3, Accepted, nil, 1},
			{3, Duplicate, nil, 1},
			{0, Duplicate, nil, 1},
			{1, Accepted, []uint64{1}, 1},
			{1, Duplicate, nil, 1},
			{2, Accepted, []uint64{2, 3}, 0},
			{3, Duplicate, nil, 0},
		}},
		{"too far ahead", []step{
			{MaxSeqAhead + 1, TooFarAhead, nil, 0},
			{^uint64(0), TooFarAhead, nil, 0},
			{MaxSeqAhead, Accepted, nil, 1}, // the furthest seq that may wait
			{0, Accepted, []uint64{0}, 1},
			{MaxSeqAhead + 1, Accepted, nil, 2}, // the window moved with Next
			{MaxSeqAhead + 2, TooFarAhead, nil, 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r Reorder[uint64]
			for i, st := range tc.steps {
				var got []uint64
				if v := r.Push(st.seq, st.seq, func(v uint64) { got = append(got, v) }); v != st.verdict {
					t.Fatalf("step %d: Push(%d) = %v, want %v", i, st.seq, v, st.verdict)
				}
				if !reflect.DeepEqual(got, st.delivered) {
					t.Fatalf("step %d: Push(%d) delivered %v, want %v", i, st.seq, got, st.delivered)
				}
				if r.Pending() != st.pending {
					t.Fatalf("step %d: %d buffered after Push(%d), want %d", i, r.Pending(), st.seq, st.pending)
				}
			}
		})
	}
}

// TestReorderInOrderNeverTouchesTheMap: a stream that arrives in order is
// delivered without the pending map ever being created, let alone filled.
func TestReorderInOrderNeverTouchesTheMap(t *testing.T) {
	var r Reorder[int]
	for seq := uint64(0); seq < 1000; seq++ {
		r.Push(seq, 0, func(int) {
			if r.pending != nil {
				t.Fatalf("seq %d: an in-order stream created the pending map", seq)
			}
		})
	}
	if r.Next() != 1000 || r.pending != nil {
		t.Errorf("next %d, pending %v after 1000 in-order arrivals", r.Next(), r.pending)
	}
}

// TestReorderBuffered: what gap repair reads — the seqs from Next up
// that are not buffered are the ones it asks for.
func TestReorderBuffered(t *testing.T) {
	var r Reorder[int]
	nop := func(int) {}
	for _, seq := range []uint64{0, 1, 4, 6} {
		r.Push(seq, 0, nop)
	}
	var missing []uint64
	for s := r.Next(); s <= 7; s++ {
		if !r.Buffered(s) {
			missing = append(missing, s)
		}
	}
	if want := []uint64{2, 3, 5, 7}; !reflect.DeepEqual(missing, want) {
		t.Errorf("seqs not buffered from Next through 7 = %v, want %v", missing, want)
	}
	if r.Buffered(0) || r.Buffered(1) {
		t.Error("a delivered seq reads as buffered")
	}
}

// TestReorderReentrantPush: deliver may push further arrivals of the same
// stream — the next seq, a later one, a duplicate of one still buffered —
// and every value still comes out exactly once, in order.
func TestReorderReentrantPush(t *testing.T) {
	var r Reorder[uint64]
	var got []uint64
	verdicts := map[uint64]Verdict{}
	var deliver func(uint64)
	deliver = func(v uint64) {
		got = append(got, v)
		switch v {
		case 0: // from the fast path: the next seq, then one past a gap
			verdicts[1] = r.Push(1, 1, deliver)
			verdicts[3] = r.Push(3, 3, deliver)
		case 4: // from the drain, with 5 still buffered: a duplicate of it, then a later seq
			verdicts[5] = r.Push(5, 5, deliver)
			verdicts[6] = r.Push(6, 6, deliver)
		}
	}
	r.Push(0, 0, deliver) // → 0, 1 (3 waits)
	r.Push(5, 5, deliver)
	r.Push(4, 4, deliver)
	r.Push(2, 2, deliver) // → 2, 3, 4, 5, 6
	if want := []uint64{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if want := map[uint64]Verdict{1: Accepted, 3: Accepted, 5: Duplicate, 6: Accepted}; !reflect.DeepEqual(verdicts, want) {
		t.Errorf("re-entrant verdicts %v, want %v", verdicts, want)
	}
	if r.Next() != 7 || r.Pending() != 0 {
		t.Errorf("next %d with %d buffered, want 7 and 0", r.Next(), r.Pending())
	}
}

// TestReorderMatchesInsertAndDrain: on random arrival orders with
// duplicates, Push behaves as the loop it replaced — insert into the map,
// then drain while the next seq is present.
func TestReorderMatchesInsertAndDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		arrivals := rng.Perm(40)
		for i := 0; i < 15; i++ { // duplicates, early and late
			arrivals = append(arrivals, rng.Intn(40))
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

		var r Reorder[int]
		var got, want []int
		next, pending := uint64(0), map[uint64]int{}
		for _, a := range arrivals {
			seq := uint64(a)
			r.Push(seq, a, func(v int) { got = append(got, v) })
			if _, dup := pending[seq]; seq >= next && !dup {
				pending[seq] = a
				for v, ok := pending[next]; ok; v, ok = pending[next] {
					delete(pending, next)
					next++
					want = append(want, v)
				}
			}
			if !reflect.DeepEqual(got, want) || r.Next() != next || r.Pending() != len(pending) {
				t.Fatalf("round %d after seq %d: delivered %v (next %d, %d buffered), reference %v (next %d, %d buffered)",
					round, seq, got, r.Next(), r.Pending(), want, next, len(pending))
			}
		}
	}
}

// TestReorderInOrderAllocs: an in-order arrival costs no allocation.
func TestReorderInOrderAllocs(t *testing.T) {
	type msg struct {
		origin  int
		payload []byte
	}
	var r Reorder[msg]
	delivered := 0
	payload := []byte("payload")
	seq := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		r.Push(seq, msg{origin: 1, payload: payload}, func(m msg) { delivered += len(m.payload) })
		seq++
	})
	if got != 0 || delivered == 0 {
		t.Errorf("an in-order Push allocates %v (delivered %d bytes), want 0", got, delivered)
	}
}

// bytesKeeper copies into and frees from a stack of its own, counting
// both: the Keeper fifo, seqorder and tokenorder install.
type bytesKeeper struct {
	kept, freed int
	spare       [][]byte
}

func (k *bytesKeeper) Keep(p []byte) []byte {
	k.kept++
	var b []byte
	if n := len(k.spare); n > 0 {
		b, k.spare = k.spare[n-1][:0], k.spare[:n-1]
	}
	return append(b, p...)
}

func (k *bytesKeeper) Free(p []byte) {
	k.freed++
	k.spare = append(k.spare, p)
}

// TestReorderKeepsCopiesOfBufferedArrivals: an arrival delivered at once
// is handed on as it came; one that waits behind a gap is the keeper's
// copy, so the borrowed bytes it came in may be overwritten as soon as
// Push returns, and the copy is freed once delivered.
func TestReorderKeepsCopiesOfBufferedArrivals(t *testing.T) {
	var r Reorder[[]byte]
	k := &bytesKeeper{}
	r.SetKeeper(k)
	var got []string
	deliver := func(p []byte) { got = append(got, string(p)) }
	frame := []byte("one")
	r.Push(1, frame, deliver)
	copy(frame, "XXX") // the borrow has ended
	if k.kept != 1 || len(got) != 0 {
		t.Fatalf("a buffered arrival: %d kept, %d delivered", k.kept, len(got))
	}
	zero := []byte("zero")
	var handed []byte
	r.Push(0, zero, func(p []byte) {
		if handed == nil {
			handed = p
		}
		deliver(p)
	})
	if !reflect.DeepEqual(got, []string{"zero", "one"}) {
		t.Fatalf("delivered %q, want zero then one", got)
	}
	if &handed[0] != &zero[0] || k.kept != 1 || k.freed != 1 {
		t.Errorf("in-order arrival copied, or %d kept and %d freed, want 1 and 1", k.kept, k.freed)
	}
}
