package proto

import "testing"

// Values come out in the order they went in, whatever the interleaving
// of pushes and pops (bursts that drain, bursts that leave a backlog).
func TestQueueIsFIFO(t *testing.T) {
	var q Queue[int]
	pushed, popped := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(pushed)
			pushed++
		}
		for i := 0; i < round%5+2 && q.Len() > 0; i++ {
			if q.At(0) != popped || q.At(q.Len()-1) != pushed-1 {
				t.Fatalf("round %d: At(0) = %d, At(last) = %d; want %d, %d", round, q.At(0), q.At(q.Len()-1), popped, pushed-1)
			}
			if got := q.Pop(); got != popped {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, popped)
			}
			popped++
		}
		if q.Len() != pushed-popped {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), pushed-popped)
		}
	}
}

// A served slot must not keep its value reachable, and a drained queue
// rewinds to the start of its array.
func TestQueueClearsServedSlots(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 4; i++ {
		q.Push(new(int))
	}
	q.Pop()
	q.Pop()
	if q.items[0] != nil || q.items[1] != nil || q.Len() != 2 {
		t.Fatalf("served slots not cleared: %v", q.items)
	}
	q.Pop()
	q.Pop()
	if q.head != 0 || len(q.items) != 0 || q.Len() != 0 {
		t.Fatalf("drained queue did not rewind: head %d len %d", q.head, len(q.items))
	}
}

// TestQueueSteadyStateAllocs: neither a queue that drains every round
// nor one that always keeps a backlog grows its array once warm — the
// `q = q[1:]; q = append(q, v)` creep this type replaces.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var drained, backlog Queue[[]byte]
	v := []byte("x")
	backlog.Push(v)
	got := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			drained.Push(v)
			backlog.Push(v)
		}
		for i := 0; i < 8; i++ {
			drained.Pop()
			backlog.Pop()
		}
	})
	if got != 0 || drained.Len() != 0 || backlog.Len() != 1 {
		t.Errorf("steady-state queues allocate %v per round (len %d, %d), want 0", got, drained.Len(), backlog.Len())
	}
	if c := cap(backlog.items); c > 64 {
		t.Errorf("a queue of depth <= 9 grew its array to %d", c)
	}
}
