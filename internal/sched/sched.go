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
// Tasks are implemented as goroutines with a strict baton-passing
// handshake (park/resume channels), not as continuations: each keeps a
// real stack, so rank bodies are written as straight-line code, while the
// scheduler guarantees mutual exclusion. Under -race every handshake is a
// happens-before edge, so the whole simulation is race-clean by
// construction.
package sched

import (
	"fmt"

	"repro/internal/simtime"
)

type taskState uint8

const (
	stateRunnable taskState = iota // in the run heap
	stateRunning                   // the one task currently executing
	stateParked                    // blocked on a Queue or Gate
	stateDone                      // fn returned; done gate open
)

// Task is one schedulable entity: a rank body, or a Sendrecv send half.
// All Task methods must be called while the task is the running task (the
// scheduler's mutual exclusion makes this the natural state of affairs).
type Task struct {
	s    *Scheduler
	rank int // heap tiebreak: owning rank
	sub  int // 0 = rank main task, >0 = forked sub-task
	clk  *simtime.Clock

	resume chan struct{} // scheduler -> task baton
	state  taskState

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
}

// Rank reports the owning rank passed to Spawn.
func (t *Task) Rank() int { return t.rank }

// Scheduler owns the run heap and the baton. The zero value is not ready;
// use New. A Scheduler is single-threaded by design: Run executes on the
// caller's goroutine and hands the baton to exactly one task at a time.
type Scheduler struct {
	heap  []*Task
	yield chan struct{} // task -> scheduler baton

	seq        uint64
	subSeq     int
	live       int   // spawned minus finished
	parked     *Task // head of the intrusive parked list
	aborted    bool
	dispatches uint64
}

// New returns an empty scheduler.
func New() *Scheduler {
	return &Scheduler{
		yield: make(chan struct{}, 1),
	}
}

// Dispatches reports how many times the scheduler has handed the baton to
// a task — the event count of the simulation.
func (s *Scheduler) Dispatches() uint64 { return s.dispatches }

// Aborted reports whether the run has been aborted (a task failed or a
// deadlock was detected). Blocking primitives consult it to fail fast.
func (s *Scheduler) Aborted() bool { return s.aborted }

// Spawn creates a task owned by rank, clocked by clk, and queues it at
// clk's current instant. fn runs when the scheduler first dispatches the
// task; a non-nil return aborts the whole run (every parked task is woken
// and its pending blocking operation fails). Spawn may be called before
// Run or from inside a running task.
func (s *Scheduler) Spawn(rank int, clk *simtime.Clock, fn func(*Task) error) *Task {
	s.subSeq++
	t := &Task{
		s:      s,
		rank:   rank,
		sub:    s.subSeq,
		clk:    clk,
		resume: make(chan struct{}, 1),
		fn:     fn,
	}
	s.live++
	s.push(t, clk.Now())
	//reprolint:ignore schedonly: the scheduler is the one place goroutines are born
	go t.run()
	return t
}

// run is the task goroutine: wait for the first dispatch, execute fn,
// mark completion and hand the baton back for good.
func (t *Task) run() {
	<-t.resume
	err := t.fn(t)
	t.state = stateDone
	t.s.live--
	if err != nil {
		t.s.abort()
	}
	t.done.Open()
	t.s.yield <- struct{}{}
}

// Run dispatches tasks until all have finished. It returns an error if
// the task graph deadlocked: every live task parked with nothing left in
// the run queue. On deadlock the run is aborted so parked tasks unwind
// through their failing blocking operations; if some task still refuses
// to finish (a Gate cycle — a programming error), Run gives up and
// reports the stuck tasks, leaking their goroutines.
func (s *Scheduler) Run() error {
	var deadlock error
	for s.live > 0 {
		if len(s.heap) == 0 {
			if !s.aborted {
				deadlock = fmt.Errorf("sched: deadlock: %s", s.parkedSummary())
				s.abort()
				continue
			}
			return fmt.Errorf("sched: %d tasks stuck after abort: %s", s.live, s.parkedSummary())
		}
		t := s.pop()
		t.state = stateRunning
		s.dispatches++
		t.resume <- struct{}{}
		<-s.yield
	}
	return deadlock
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
	t.s.yield <- struct{}{}
	<-t.resume
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
	t.s.yield <- struct{}{}
	<-t.resume
}

// Join parks the running task until other has finished. waiter may be
// nil when other is already done.
func (t *Task) Join(other *Task) {
	other.done.Wait(t)
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
