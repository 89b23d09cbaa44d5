// Package sched is the deterministic event scheduler at the heart of the
// simulator. It replaces "one free-running goroutine per rank, kept
// honest by ad-hoc ordering gates" with an event-driven run-to-completion
// design on a single logical clock: every simulated entity is a Task, and
// at any real-time instant exactly one task executes. Tasks block on
// simulated events — message arrival (Queue.Pop), credit return
// (Queue.Pop), WR/DMA ordering (Gate.Wait) — and the scheduler picks the
// next task to run from a min-heap keyed by (virtual ready time, rank,
// wake sequence).
//
// The determinism invariant lives entirely here: because the run queue
// order is a pure function of virtual timestamps and spawn/wake order,
// the execution schedule — and therefore every cost attribution in the
// simulation — is identical across runs, GOMAXPROCS settings and race
// builds. Layers above sched need no further synchronisation machinery.
//
// Each task runs as an iter.Pull coroutine, not as a continuation: it
// keeps a real stack, so rank bodies are written as straight-line code.
// Run resumes the task it pops with the coroutine's next function, and a
// task that parks or yields hands the baton back through its yield
// function, so a dispatch is a direct coroutine switch that never goes
// through the Go runtime scheduler. The switches are happens-before
// edges, so under -race the whole simulation is race-clean by
// construction. The package starts no goroutine and uses no channel.
//
// Coroutines are pooled per scheduler. Join recycles the task it joined:
// its coroutine waits idle for the next Spawn, which reuses it before
// creating another. A world therefore holds one coroutine per task that
// is live at once — its ranks plus their in-flight Sendrecv send halves
// — however many sub-tasks it forks. When the last task finishes, Run
// stops every coroutine, so a run leaves no goroutine behind.
package sched

import (
	"fmt"
	"iter"

	"repro/internal/simtime"
)

type taskState uint8

const (
	stateRunnable taskState = iota // in the run heap
	stateRunning                   // the one task currently executing
	stateParked                    // blocked on a Queue or Gate
	stateDone                      // fn returned; done gate open
	stateIdle                      // joined; coroutine waits for reuse
)

// Task is one schedulable entity: a rank body, or a Sendrecv send half.
// All Task methods must be called while the task is the running task (the
// scheduler's mutual exclusion makes this the natural state of affairs).
type Task struct {
	s     *Scheduler
	rank  int // heap tiebreak: owning rank
	clk   *simtime.Clock
	state taskState

	readyAt simtime.Ticks // heap key when runnable
	seq     uint64        // wake sequence, final heap tiebreak
	heapIx  int

	// parked-list links (intrusive, so parking never allocates).
	parkPrev, parkNext *Task
	// waitVerb and waitOn say what a parked task waits for ("pop" and a
	// queue name, say); parkedSummary joins them only when a deadlock
	// is reported, so parking never builds a string.
	waitVerb, waitOn string

	done Gate // opened when fn returns, aborted or not
	fn   func(*Task) error

	// The task's coroutine: the scheduler resumes it with next and ends
	// it with stop; the task hands the baton back with yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Scheduler owns the run heap and the baton. The zero value is not ready;
// use New. A Scheduler is single-threaded by design: Run executes on the
// caller's goroutine and hands the baton to exactly one task at a time.
type Scheduler struct {
	heap []*Task

	// tasks holds every task whose coroutine is alive; idle holds the
	// joined ones, ready for Spawn to reuse.
	tasks, idle []*Task

	seq     uint64
	live    int   // spawned minus finished
	parked  *Task // head of the intrusive parked list
	aborted bool
}

// New returns an empty scheduler.
func New() *Scheduler { return &Scheduler{} }

// Coroutines reports how many task coroutines the scheduler holds, live
// or idle. It is 0 before the first Spawn and after Run returns.
func (s *Scheduler) Coroutines() int { return len(s.tasks) }

// Spawn creates a task owned by rank, clocked by clk, and queues it at
// clk's current instant. fn runs when the scheduler first dispatches the
// task; a non-nil return aborts the whole run (every parked task is woken
// and its pending blocking operation fails). Spawn may be called before
// Run or from inside a running task. It reuses the coroutine of a joined
// task when one is idle.
func (s *Scheduler) Spawn(rank int, clk *simtime.Clock, fn func(*Task) error) *Task {
	var t *Task
	if k := len(s.idle); k > 0 {
		t = s.idle[k-1]
		s.idle[k-1] = nil
		s.idle = s.idle[:k-1]
		t.done = Gate{}
	} else {
		t = &Task{s: s}
		t.next, t.stop = iter.Pull(t.loop)
		s.tasks = append(s.tasks, t)
	}
	t.rank, t.clk, t.fn = rank, clk, fn
	s.live++
	s.push(t, clk.Now())
	return t
}

// loop is the task's coroutine body: each time the scheduler dispatches
// a freshly spawned task it executes fn, marks completion and hands the
// baton back, then waits to be reused or stopped.
func (t *Task) loop(yield func(struct{}) bool) {
	t.yield = yield
	for {
		err := t.fn(t)
		t.state = stateDone
		t.s.live--
		if err != nil {
			t.s.abort()
		}
		t.done.Open()
		if !yield(struct{}{}) {
			return
		}
	}
}

// Run dispatches tasks until all have finished, then stops every
// coroutine. It returns an error if the task graph deadlocked: every
// live task parked with nothing left in the run queue. On deadlock the
// run is aborted so parked tasks unwind through their failing blocking
// operations; if some task still refuses to finish (a Gate cycle — a
// programming error), Run gives up and reports the stuck tasks, leaking
// their coroutines. A panic in a task propagates out of Run, leaving the
// scheduler unusable.
func (s *Scheduler) Run() error {
	var deadlock error
	for s.live > 0 {
		if len(s.heap) == 0 {
			if !s.aborted {
				deadlock = fmt.Errorf("sched: deadlock: %s", s.parkedSummary())
				s.abort()
				continue
			}
			err := fmt.Errorf("sched: %d tasks stuck after abort: %s", s.live, s.parkedSummary())
			s.release()
			return err
		}
		t := s.pop()
		t.state = stateRunning
		t.next()
	}
	s.release()
	return deadlock
}

// release stops the coroutine of every task that is not parked (all of
// them once the last task has finished) and empties the pool.
func (s *Scheduler) release() {
	for i, t := range s.tasks {
		if t.state != stateParked {
			t.stop()
		}
		s.tasks[i] = nil
	}
	s.tasks = s.tasks[:0]
	clear(s.idle)
	s.idle = s.idle[:0]
}

// Abort fails the run from inside the running task, exactly as a task
// returning an error does. A task calls it when it abandons a protocol
// another task is parked on, so the waiter unwinds instead of
// deadlocking.
func (s *Scheduler) Abort() { s.abort() }

// abort marks the run dead and makes every parked task runnable so its
// blocking primitive can observe the abort and fail.
func (s *Scheduler) abort() {
	s.aborted = true
	for s.parked != nil {
		s.ready(s.parked)
	}
}

// parkedSummary names the parked tasks and what they wait on, for
// deadlock diagnostics.
func (s *Scheduler) parkedSummary() string {
	const max = 8
	out, n := "", 0
	for t := s.parked; t != nil; t = t.parkNext {
		if n == max {
			out += ", …"
			break
		}
		if n > 0 {
			out += ", "
		}
		reason := t.waitVerb
		if t.waitOn != "" {
			reason += " " + t.waitOn
		}
		out += fmt.Sprintf("rank %d (%s) at %d", t.rank, reason, t.readyAt)
		n++
	}
	if out == "" {
		return "no parked tasks"
	}
	return out
}

// park blocks the running task until ready() re-queues it and the
// scheduler dispatches it again. verb and on name what it waits for.
func (t *Task) park(verb, on string) {
	t.state = stateParked
	t.waitVerb, t.waitOn = verb, on
	t.readyAt = t.clk.Now()
	t.parkNext = t.s.parked
	if t.s.parked != nil {
		t.s.parked.parkPrev = t
	}
	t.s.parked = t
	t.yield(struct{}{})
	t.waitVerb, t.waitOn = "", ""
}

// ready moves a parked task into the run heap at its own virtual time.
// Tasks that are already runnable, running or done are left alone, so
// redundant wakeups (abort plus a later Gate open, say) are harmless.
func (s *Scheduler) ready(t *Task) {
	if t.state != stateParked {
		return
	}
	if t.parkPrev != nil {
		t.parkPrev.parkNext = t.parkNext
	} else {
		s.parked = t.parkNext
	}
	if t.parkNext != nil {
		t.parkNext.parkPrev = t.parkPrev
	}
	t.parkPrev, t.parkNext = nil, nil
	s.push(t, t.clk.Now())
}

// Yield re-queues the running task at its current virtual time and hands
// the baton back, letting any task with an earlier ready time run first.
// Long compute phases call this so they become scheduled events instead
// of opaque stretches the event order cannot see into. Nil-safe.
func (t *Task) Yield() {
	if t == nil {
		return
	}
	t.s.push(t, t.clk.Now())
	t.yield(struct{}{})
}

// Join parks the running task until other has finished, then recycles
// other's coroutine for the next Spawn. t may be nil when other is
// already done. A task has at most one joiner, and other must not be
// used once Join returns: joining it again before the next Spawn
// returns at once, after that it is another task.
func (t *Task) Join(other *Task) {
	other.done.Wait(t)
	if other.state == stateDone {
		other.state = stateIdle
		other.s.idle = append(other.s.idle, other)
	}
}

// ---- run heap: min-order on (readyAt, rank, seq) ----

func (s *Scheduler) push(t *Task, at simtime.Ticks) {
	t.state = stateRunnable
	t.readyAt = at
	s.seq++
	t.seq = s.seq
	s.heap = append(s.heap, t)
	i := len(s.heap) - 1
	t.heapIx = i
	for i > 0 {
		parent := (i - 1) / 2
		if !taskLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

func (s *Scheduler) pop() *Task {
	t := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[0].heapIx = 0
	s.heap[last] = nil
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && taskLess(s.heap[l], s.heap[min]) {
			min = l
		}
		if r < last && taskLess(s.heap[r], s.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		s.heapSwap(i, min)
		i = min
	}
	return t
}

func (s *Scheduler) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].heapIx = i
	s.heap[j].heapIx = j
}

// taskLess is the scheduler's total order: earliest virtual ready time
// first, then lowest rank, then wake order. Every component is a pure
// function of simulation state, which is what makes the schedule — and
// everything downstream of it — deterministic.
func taskLess(a, b *Task) bool {
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}
