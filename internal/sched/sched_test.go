package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// TestOrderFollowsVirtualTime: tasks become runnable at their clock's
// instant; the scheduler must dispatch in (time, rank) order regardless
// of spawn order.
func TestOrderFollowsVirtualTime(t *testing.T) {
	s := New()
	var order []string
	clocks := make([]simtime.Clock, 3)
	starts := []simtime.Ticks{300, 100, 200}
	for i := range clocks {
		i := i
		clocks[i].AdvanceTo(starts[i])
		s.Spawn(i, &clocks[i], func(tk *Task) error {
			order = append(order, fmt.Sprintf("r%d@%d", i, tk.clk.Now()))
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, " ")
	if want := "r1@100 r2@200 r0@300"; got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
}

// TestTieBreakByRank: equal ready times dispatch in rank order.
func TestTieBreakByRank(t *testing.T) {
	s := New()
	var order []int
	clocks := make([]simtime.Clock, 4)
	for _, i := range []int{3, 1, 2, 0} { // scrambled spawn order
		i := i
		s.Spawn(i, &clocks[i], func(*Task) error {
			order = append(order, i)
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range order {
		if r != i {
			t.Fatalf("order %v, want ranks ascending", order)
		}
	}
}

// TestQueueRendezvous: a bounded queue carries values in FIFO order, the
// consumer parks on empty, the producer parks on full, and both resume.
func TestQueueRendezvous(t *testing.T) {
	s := New()
	var prod, cons simtime.Clock
	q := NewQueue[int](s, "test", 2)
	var got []int
	s.Spawn(0, &prod, func(tk *Task) error {
		for i := 1; i <= 5; i++ {
			if !q.Push(tk, i) {
				return errors.New("push aborted")
			}
		}
		return nil
	})
	s.Spawn(1, &cons, func(tk *Task) error {
		cons.AdvanceTo(10) // start later so the producer fills up first
		for i := 0; i < 5; i++ {
			v, ok := q.Pop(tk)
			if !ok {
				return errors.New("pop aborted")
			}
			got = append(got, v)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("consumed %v, want %v", got, want)
	}
}

// TestQueuePreloadAndTryPush: preloaded tokens drain first; TryPush
// respects capacity without parking.
func TestQueuePreloadAndTryPush(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "tokens", 2)
	q.Preload(7)
	q.Preload(8)
	if q.TryPush(9) {
		t.Fatal("TryPush succeeded on a full queue")
	}
	var clk simtime.Clock
	s.Spawn(0, &clk, func(tk *Task) error {
		if v, ok := q.Pop(tk); !ok || v != 7 {
			return fmt.Errorf("pop = %d,%v, want 7,true", v, ok)
		}
		if !q.TryPush(9) {
			return errors.New("TryPush failed with room available")
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGateOrdersWaiter: the waiter cannot pass the gate before the
// opener opens it, whatever the clocks say.
func TestGateOrdersWaiter(t *testing.T) {
	s := New()
	var g Gate
	var opener, waiter simtime.Clock
	waiter.AdvanceTo(1) // opener is dispatched first
	var order []string
	s.Spawn(0, &opener, func(*Task) error {
		order = append(order, "pre-open")
		g.Open()
		return nil
	})
	s.Spawn(1, &waiter, func(tk *Task) error {
		g.Wait(tk)
		order = append(order, "post-wait")
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "pre-open post-wait" {
		t.Fatalf("order %q", got)
	}
	var nilGate *Gate
	nilGate.Open()    // must not panic
	nilGate.Wait(nil) // must not block
}

// TestGateWakesWaitersInArrivalOrder: the lone-waiter slot and the
// overflow list together wake every waiter, first come first served.
func TestGateWakesWaitersInArrivalOrder(t *testing.T) {
	s := New()
	var g Gate
	var clks [4]simtime.Clock
	var order []int
	for i := 0; i < 3; i++ {
		s.Spawn(0, &clks[i], func(tk *Task) error {
			g.Wait(tk)
			order = append(order, i)
			return nil
		})
	}
	clks[3].AdvanceTo(1) // the opener runs after all three parked
	s.Spawn(1, &clks[3], func(*Task) error {
		g.Open()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("waiters woke in order %v, want [0 1 2]", order)
	}
}

// TestAbortFailsBlockedPops: a failing task wakes a parked peer, whose
// Pop reports the abort; buffered values still drain first.
func TestAbortFailsBlockedPops(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "data", 0)
	q.Preload(42)
	var bad, good simtime.Clock
	var got []int
	var popOK []bool
	s.Spawn(0, &good, func(tk *Task) error {
		for i := 0; i < 2; i++ {
			v, ok := q.Pop(tk)
			got = append(got, v)
			popOK = append(popOK, ok)
		}
		return nil
	})
	s.Spawn(1, &bad, func(tk *Task) error {
		bad.AdvanceTo(5)
		tk.Yield() // let the popper drain the buffered value and park
		return errors.New("injected failure")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err) // body errors are the caller's to collect; Run only reports deadlocks
	}
	if len(got) != 2 || got[0] != 42 || !popOK[0] || popOK[1] {
		t.Fatalf("pops = %v ok=%v, want buffered 42 then aborted", got, popOK)
	}
	if !s.aborted {
		t.Fatal("scheduler not marked aborted")
	}
}

// TestDeadlockDetected: two tasks popping empty queues is a deadlock;
// Run reports it and both tasks unwind.
func TestDeadlockDetected(t *testing.T) {
	s := New()
	qa := NewQueue[int](s, "a", 0)
	qb := NewQueue[int](s, "b", 0)
	var ca, cb simtime.Clock
	unwound := 0
	s.Spawn(0, &ca, func(tk *Task) error {
		if _, ok := qa.Pop(tk); !ok {
			unwound++
		}
		return nil
	})
	s.Spawn(1, &cb, func(tk *Task) error {
		if _, ok := qb.Pop(tk); !ok {
			unwound++
		}
		return nil
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
	for _, want := range []string{"rank 0 (pop a) at 0", "rank 1 (pop b) at 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to name %q", err, want)
		}
	}
	if unwound != 2 {
		t.Fatalf("%d tasks unwound, want 2", unwound)
	}
}

// TestYieldInterleavesByTime: compute loops that advance their clocks
// and yield interleave in virtual-time order, giving the deterministic
// round-robin the event heap implies.
func TestYieldInterleavesByTime(t *testing.T) {
	s := New()
	var order []string
	clocks := make([]simtime.Clock, 2)
	steps := []simtime.Ticks{10, 15}
	for i := range clocks {
		i := i
		s.Spawn(i, &clocks[i], func(tk *Task) error {
			for j := 0; j < 3; j++ {
				clocks[i].Advance(steps[i])
				order = append(order, fmt.Sprintf("r%d@%d", i, clocks[i].Now()))
				tk.Yield()
			}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "r0@10 r1@15 r0@20 r1@30 r0@30 r1@45"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestJoinWaitsForSubTask: Join parks until the sub-task has finished,
// including sub-tasks spawned mid-run.
func TestJoinWaitsForSubTask(t *testing.T) {
	s := New()
	var main, sub simtime.Clock
	var order []string
	s.Spawn(0, &main, func(tk *Task) error {
		sub.AdvanceTo(main.Now())
		st := s.Spawn(0, &sub, func(stk *Task) error {
			sub.Advance(100)
			stk.Yield()
			order = append(order, "sub")
			return nil
		})
		tk.Join(st)
		order = append(order, "joined")
		tk.Join(st) // joining a finished task returns immediately
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "sub joined" {
		t.Fatalf("order %q", got)
	}
}

// TestSchedulerReuse: a scheduler runs several generations of tasks
// (worlds run warmup and timed phases through the same scheduler).
func TestSchedulerReuse(t *testing.T) {
	s := New()
	for gen := 0; gen < 3; gen++ {
		var clk simtime.Clock
		ran := false
		s.Spawn(0, &clk, func(*Task) error { ran = true; return nil })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatalf("generation %d did not run", gen)
		}
	}
}

// TestSpawnJoinReusesOneCoroutine: a task that spawns and joins a
// sub-task over and over reuses one pooled coroutine, so after the first
// fork a spawn-join pair allocates nothing.
func TestSpawnJoinReusesOneCoroutine(t *testing.T) {
	s := New()
	var clk simtime.Clock
	ran := 0
	sub := func(*Task) error { ran++; return nil }
	var allocs float64
	var held int
	s.Spawn(0, &clk, func(tk *Task) error {
		for i := 0; i < 1000; i++ {
			tk.Join(s.Spawn(0, &clk, sub))
		}
		allocs = testing.AllocsPerRun(100, func() { tk.Join(s.Spawn(0, &clk, sub)) })
		held = s.Coroutines()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1000+101 {
		t.Fatalf("sub-task ran %d times, want %d", ran, 1000+101)
	}
	if allocs != 0 {
		t.Errorf("spawn+join allocates %.1f objects after warm-up, want 0", allocs)
	}
	if held != 2 {
		t.Errorf("scheduler held %d coroutines, want 2: the parent and one pooled sub-task", held)
	}
	if n := s.Coroutines(); n != 0 {
		t.Errorf("%d coroutines left after Run, want 0", n)
	}
}

// TestRunLeavesNoGoroutine: Run stops every coroutine once the last task
// has finished — after a clean run, an aborted one and a deadlocked one
// alike. Only tasks stuck after an abort (a Gate cycle, which no abort
// can break) keep their coroutines; Run reports them and leaks them.
func TestRunLeavesNoGoroutine(t *testing.T) {
	twoTasks := func(s *Scheduler, a, b func(*Task) error) {
		var ca, cb simtime.Clock
		s.Spawn(0, &ca, a)
		s.Spawn(1, &cb, b)
	}
	cases := []struct {
		name   string
		build  func(s *Scheduler)
		errHas string
		leaked int
	}{
		{"clean", func(s *Scheduler) {
			q := NewQueue[int](s, "q", 1)
			twoTasks(s,
				func(tk *Task) error { q.Push(tk, 1); return nil },
				func(tk *Task) error { q.Pop(tk); return nil })
		}, "", 0},
		{"aborted", func(s *Scheduler) {
			q := NewQueue[int](s, "q", 0)
			twoTasks(s,
				func(tk *Task) error { q.Pop(tk); return nil },
				func(tk *Task) error { tk.Yield(); return errors.New("boom") })
		}, "", 0},
		{"deadlocked", func(s *Scheduler) {
			qa, qb := NewQueue[int](s, "a", 0), NewQueue[int](s, "b", 0)
			twoTasks(s,
				func(tk *Task) error { qa.Pop(tk); return nil },
				func(tk *Task) error { qb.Pop(tk); return nil })
		}, "deadlock", 0},
		{"stuck after abort", func(s *Scheduler) {
			var ga, gb Gate
			twoTasks(s,
				func(tk *Task) error { ga.Wait(tk); gb.Open(); return nil },
				func(tk *Task) error { gb.Wait(tk); ga.Open(); return nil })
		}, "stuck after abort", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := goroutines()
			s := New()
			c.build(s)
			err := s.Run()
			if c.errHas == "" && err != nil || c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)) {
				t.Fatalf("Run = %v, want an error containing %q", err, c.errHas)
			}
			if got := goroutines() - before; got != c.leaked {
				t.Fatalf("Run left %d goroutines behind, want %d", got, c.leaked)
			}
		})
	}
}

// goroutines counts goroutines once the count has settled: a test or
// subtest that just finished may still be tearing its goroutine down.
func goroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && same < 5; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestForkedTaskPanicReachesRun: a panic in a forked task comes out of
// Run on the caller's goroutine, where it can be recovered, instead of
// crashing the process from a goroutine nobody can recover on.
func TestForkedTaskPanicReachesRun(t *testing.T) {
	s := New()
	var clk simtime.Clock
	s.Spawn(0, &clk, func(tk *Task) error {
		tk.Join(s.Spawn(0, &clk, func(*Task) error { panic("sub-task blew up") }))
		return nil
	})
	defer func() {
		if p := recover(); p != "sub-task blew up" {
			t.Fatalf("recovered %v, want the sub-task's panic", p)
		}
	}()
	s.Run()
	t.Fatal("Run returned normally")
}

// BenchmarkSpawnJoin: one fork and join of a sub-task from a running
// task — the cost a forked Sendrecv pays for its send half.
func BenchmarkSpawnJoin(b *testing.B) {
	b.ReportAllocs()
	s := New()
	var clk simtime.Clock
	sub := func(*Task) error { return nil }
	n := b.N
	s.Spawn(0, &clk, func(tk *Task) error {
		for i := 0; i < n; i++ {
			tk.Join(s.Spawn(0, &clk, sub))
		}
		return nil
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBatonPingPong: two tasks alternating through a one-slot
// Queue, so every operation is a push, a pop and two baton passes.
func BenchmarkBatonPingPong(b *testing.B) {
	b.ReportAllocs()
	s := New()
	q := NewQueue[int](s, "pingpong", 1)
	var ca, cb simtime.Clock
	n := b.N
	s.Spawn(0, &ca, func(tk *Task) error {
		for i := 0; i < n; i++ {
			if !q.Push(tk, i) {
				return errors.New("push aborted")
			}
		}
		return nil
	})
	s.Spawn(1, &cb, func(tk *Task) error {
		for i := 0; i < n; i++ {
			if _, ok := q.Pop(tk); !ok {
				return errors.New("pop aborted")
			}
		}
		return nil
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
