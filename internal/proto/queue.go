package proto

// Queue is a FIFO that stops allocating once it has reached its working
// depth. Re-slicing a queue forward (q = q[1:]) creeps along the backing
// array and makes append grow it again and again; Queue keeps a head
// index instead, clears each served slot so the value it held can be
// collected, and rewinds to the start of the array when it drains. The
// zero value is an empty queue.
type Queue[V any] struct {
	items []V
	head  int
}

// Len returns the number of queued values.
func (q *Queue[V]) Len() int { return len(q.items) - q.head }

// At returns the i-th queued value, 0 being the next to Pop.
func (q *Queue[V]) At(i int) V { return q.items[q.head+i] }

// Push appends v. A full array whose front half has been served is
// slid down rather than grown, so a queue that never quite drains stays
// bounded by its depth, not by its history.
func (q *Queue[V]) Push(v V) {
	if len(q.items) == cap(q.items) && q.head > 0 && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the oldest value; the queue must not be empty.
func (q *Queue[V]) Pop() V {
	v := q.items[q.head]
	var zero V
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
