package sched

// Gate is a one-shot ordering barrier between tasks: waiters park until
// Open. Gates express the simulation's intra-rank ordering constraints
// (registration order, DMA order, release order between the two halves
// of a Sendrecv). Every gate must be guaranteed to open — the mpi layer
// opens them in defers — so Wait never consults the abort flag: on an
// aborted run the opener unwinds, its defer opens the gate, and the
// waiter proceeds into its own failing operation.
//
// The zero Gate is closed and ready to use, so gates can live inside
// the structs that own them. A nil *Gate is inert: Open is a no-op and
// Wait returns immediately. Ungated code paths (plain Send/Recv) pass
// nil.
type Gate struct {
	opened bool
	// first is the usual lone waiter; more holds any others, in
	// arrival order, so the common case parks without allocating.
	first *Task
	more  []*Task
}

// Open opens the gate and wakes every waiter in arrival order. Calling
// Open more than once is allowed (defers double up with explicit opens).
func (g *Gate) Open() {
	if g == nil || g.opened {
		return
	}
	g.opened = true
	if g.first != nil {
		g.first.s.ready(g.first)
		g.first = nil
	}
	for _, w := range g.more {
		w.s.ready(w)
	}
	g.more = nil
}

// Wait parks t until the gate opens. Waiting on an open (or nil) gate
// returns immediately.
func (g *Gate) Wait(t *Task) {
	if g == nil {
		return
	}
	for !g.opened {
		if t == nil {
			panic("sched: Gate.Wait would block outside a task")
		}
		if g.first == nil {
			g.first = t
		} else {
			g.more = append(g.more, t)
		}
		t.park("gate", "")
	}
}

// Queue is a bounded FIFO between tasks — the simulated replacement for
// a Go channel. Pop parks on empty, Push parks on full, and both fail
// (ok=false) when the run is aborted and no progress is possible. Pop
// prefers draining buffered values over reporting an abort, so teardown
// is deterministic: a receiver always sees everything that was sent
// before the failure.
type Queue[T any] struct {
	s        *Scheduler
	name     string
	capacity int // <= 0 means unbounded
	buf      []T
	head     int
	poppers  []*Task
	pushers  []*Task
}

// NewQueue returns an empty queue named for diagnostics; capacity <= 0
// makes it unbounded.
func NewQueue[T any](s *Scheduler, name string, capacity int) *Queue[T] {
	return &Queue[T]{s: s, name: name, capacity: capacity}
}

// Len reports the number of buffered values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Free reports how many more values fit without blocking (an unbounded
// queue always has room).
func (q *Queue[T]) Free() int {
	if q.capacity <= 0 {
		return int(^uint(0) >> 1)
	}
	return q.capacity - q.Len()
}

// Preload appends a value without capacity checks or wakeups — for
// filling a fresh queue (credit pools) before any task touches it.
func (q *Queue[T]) Preload(v T) { q.buf = append(q.buf, v) }

// Pop removes and returns the oldest value, parking t while the queue is
// empty. It returns ok=false only when the queue is empty and the run
// has been aborted.
func (q *Queue[T]) Pop(t *Task) (T, bool) {
	for q.Len() == 0 {
		if q.s.aborted {
			var zero T
			return zero, false
		}
		if t == nil {
			panic("sched: Pop on " + q.name + " would block outside a task")
		}
		q.poppers = append(q.poppers, t)
		t.park("pop", q.name)
	}
	v := q.popFront()
	if len(q.pushers) > 0 {
		q.s.ready(dequeue(&q.pushers))
	}
	return v, true
}

// Push appends a value, parking t while the queue is full. It returns
// false only when the queue is full and the run has been aborted.
func (q *Queue[T]) Push(t *Task, v T) bool {
	for q.capacity > 0 && q.Len() >= q.capacity {
		if q.s.aborted {
			return false
		}
		if t == nil {
			panic("sched: Push on " + q.name + " would block outside a task")
		}
		q.pushers = append(q.pushers, t)
		t.park("push", q.name)
	}
	q.append(v)
	return true
}

// TryPush appends a value only if there is room, never parking. It
// reports whether the value was queued.
func (q *Queue[T]) TryPush(v T) bool {
	if q.capacity > 0 && q.Len() >= q.capacity {
		return false
	}
	q.append(v)
	return true
}

func (q *Queue[T]) append(v T) {
	q.buf = append(q.buf, v)
	if len(q.poppers) > 0 {
		q.s.ready(dequeue(&q.poppers))
	}
}

// dequeue removes and returns the oldest waiter, shifting the rest down
// so the slice keeps its capacity: a queue that parks one task at a
// time reuses one slot instead of allocating on every park.
func dequeue(ws *[]*Task) *Task {
	w := (*ws)[0]
	n := copy(*ws, (*ws)[1:])
	(*ws)[n] = nil
	*ws = (*ws)[:n]
	return w
}

// popFront takes the head slot, compacting the backing slice once the
// dead prefix dominates so long-lived queues (credit pools) stay O(cap).
func (q *Queue[T]) popFront() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}
