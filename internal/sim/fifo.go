package sim

// FIFO is a first-in first-out queue over a ring buffer, for the
// per-packet queues of the model (the NIC's Rx rings, the kernel's socket
// queues). Push and Pop are O(1): the ring reuses its backing array and
// grows only by doubling when full, so a queue that has reached its
// high-water mark never allocates again, and popping from the front never
// shifts the remainder down. Vacated slots are zeroed so the ring never
// pins records that were popped and recycled elsewhere. The zero value is
// an empty queue.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring (from 8 slots), unwrapping the contents to the
// front of the new array.
func (q *FIFO[T]) grow() {
	nb := make([]T, max(8, 2*len(q.buf)))
	k := copy(nb, q.buf[q.head:])
	copy(nb[k:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
}

// Pop removes and returns the oldest element. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// PopN removes up to n of the oldest elements, appends them to dst in
// queue order and returns the extended dst.
func (q *FIFO[T]) PopN(dst []T, n int) []T {
	n = min(n, q.n)
	for ; n > 0; n-- {
		dst = append(dst, q.Pop())
	}
	return dst
}
