package fleet

// Ordered containers for the serial barrier. Each one reuses its
// backing array, so the steady-state epoch loop does not allocate:
// replica run queues and the hedge queue are head-indexed FIFOs, the
// retry schedule is a typed binary heap, and the epoch's attempts are
// produced by a k-way merge of runs that are already in order.

// before is the epoch's routing order: arrival time, then attempt id.
// Attempt ids are unique, so it is a total order.
func before(a, b *attempt) bool {
	return a.arrival < b.arrival || a.arrival == b.arrival && a.id < b.id
}

// fifo is a queue over a reused backing slice. Pops advance a head
// index; a push into a full backing array first slides the live tail
// to the front when at least half the array is dead. Re-slicing
// q = q[1:] instead walks off the front of the array, so every append
// past its end reallocates.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// items is the live contents, oldest first.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.reset()
	}
	return v
}

// removeAt deletes items()[i], keeping the order of the rest.
func (q *fifo[T]) removeAt(i int) {
	j := q.head + i
	q.buf = append(q.buf[:j], q.buf[j+1:]...)
	if q.head == len(q.buf) {
		q.reset()
	}
}

func (q *fifo[T]) reset() { q.buf, q.head = q.buf[:0], 0 }

// retryHeap is a binary min-heap of scheduled retries on (arrival,
// id); a retry's arrival is its scheduled send time.
type retryHeap []attempt

func (h *retryHeap) push(a attempt) {
	s := append(*h, a)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *retryHeap) pop() attempt {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && before(&s[r], &s[m]) {
			m = r
		}
		if !before(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// runCursor is one run's read position in mergeRuns.
type runCursor struct{ next, end int }

// mergeRuns appends to dst the attempts of src in (arrival, id) order,
// where src is the concatenation of runs that each are already in that
// order and ends[k] is the end offset of run k. It is the epoch's
// replacement for sorting: each attempt is moved once, and the
// comparisons cost log2 of the run count, not of the epoch size. cur
// is scratch for the run heads, returned for reuse.
func mergeRuns(dst, src []attempt, ends []int, cur []runCursor) ([]attempt, []runCursor) {
	cur = cur[:0]
	lo := 0
	for _, end := range ends {
		if lo < end {
			cur = append(cur, runCursor{lo, end})
		}
		lo = end
	}
	less := func(i, j int) bool { return before(&src[cur[i].next], &src[cur[j].next]) }
	down := func(i int) {
		for n := len(cur); ; {
			m := 2*i + 1
			if m >= n {
				return
			}
			if r := m + 1; r < n && less(r, m) {
				m = r
			}
			if !less(m, i) {
				return
			}
			cur[i], cur[m] = cur[m], cur[i]
			i = m
		}
	}
	for i := len(cur)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(cur) > 1 {
		c := &cur[0]
		dst = append(dst, src[c.next])
		c.next++
		if c.next == c.end {
			cur[0] = cur[len(cur)-1]
			cur = cur[:len(cur)-1]
		}
		down(0)
	}
	if len(cur) == 1 {
		dst = append(dst, src[cur[0].next:cur[0].end]...)
	}
	return dst, cur
}
