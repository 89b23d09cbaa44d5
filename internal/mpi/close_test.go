package mpi

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vm"
)

// TestCloseReleasesFrameContents: a closed world holds no frame
// contents — what its ranks wrote, private frames and shared ramp frames
// alike, reads back as zeros — and refuses to run again. A second Close
// does nothing.
func TestCloseReleasesFrameContents(t *testing.T) {
	const n = 3 << 12 // three whole frames of ramp plus a private tail
	w := mustWorld(t, defaultCfg(2))
	vas := make([]vm.VA, w.Size())
	err := w.Run(func(r *Rank) error {
		va, err := r.Malloc(n + 8)
		if err != nil {
			return err
		}
		vas[r.ID()] = va
		if err := r.WriteRamp(va, 1, n); err != nil {
			return err
		}
		return r.WriteBytes(va+n, []byte("private!"))
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n+8)
	nonzero := func(i int) bool {
		if err := w.nodes[i].AS.Read(vas[i], buf); err != nil {
			t.Fatal(err)
		}
		return strings.Trim(string(buf), "\x00") != ""
	}
	for i := range vas {
		if !nonzero(i) {
			t.Fatalf("rank %d's buffer reads zeros before Close", i)
		}
	}
	w.Close()
	for i := range vas {
		if nonzero(i) {
			t.Errorf("rank %d's buffer still holds its contents after Close", i)
		}
	}
	w.Close()
	if err := w.Run(func(*Rank) error { return nil }); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Run after Close = %v, want a closed-world error", err)
	}
}

// TestForkedSendrecvReusesTask: a steady-state rendezvous ring forks a
// send half on every Sendrecv, yet allocates no Task, coroutine or
// sendHalf after the first round: each rank reuses one sendHalf, and the
// scheduler holds at most one coroutine per rank body and one per
// in-flight fork.
func TestForkedSendrecvReusesTask(t *testing.T) {
	const ranks, iters, msg = 4, 20, 64 << 10
	w := mustWorld(t, defaultCfg(ranks))
	halves := make([]*sendHalf, ranks)
	held := make([]int, ranks)
	err := w.Run(func(r *Rank) error {
		sva, err := r.Malloc(msg)
		if err != nil {
			return err
		}
		rva, err := r.Malloc(msg)
		if err != nil {
			return err
		}
		right, left := (r.ID()+1)%r.Size(), (r.ID()-1+r.Size())%r.Size()
		for it := 0; it < iters; it++ {
			if _, err := r.Sendrecv(right, it, sva, msg, left, it, rva, msg); err != nil {
				return err
			}
			if it == 0 {
				halves[r.ID()] = r.half
			} else if r.half != halves[r.ID()] {
				return errors.New("Sendrecv allocated a new sendHalf")
			}
		}
		held[r.ID()] = w.sched.Coroutines()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range halves {
		if h == nil {
			t.Fatalf("rank %d never forked a send half", i)
		}
		if held[i] > 2*ranks {
			t.Errorf("rank %d saw %d coroutines after %d forks each, want at most %d", i, held[i], iters, 2*ranks)
		}
	}
}

// TestWorldRunLeavesNoGoroutine: World.Run leaves the goroutine count as
// it found it, after a clean run, one a rank aborts, and a deadlocked
// one.
func TestWorldRunLeavesNoGoroutine(t *testing.T) {
	const msg = 64 << 10
	bodies := map[string]func(r *Rank) error{
		"clean": func(r *Rank) error {
			va, err := r.Malloc(2 * msg)
			if err != nil {
				return err
			}
			peer := 1 - r.ID()
			_, err = r.Sendrecv(peer, 0, va, msg, peer, 0, va+msg, msg)
			return err
		},
		"aborted": func(r *Rank) error {
			if r.ID() == 1 {
				return errors.New("rank 1 fails")
			}
			_, err := r.Recv(1, 0, 0, 0)
			return err
		},
		"deadlocked": func(r *Rank) error {
			_, err := r.Recv(1-r.ID(), 0, 0, 0)
			return err
		},
	}
	for _, name := range []string{"clean", "aborted", "deadlocked"} {
		t.Run(name, func(t *testing.T) {
			w := mustWorld(t, defaultCfg(2))
			before := goroutines()
			err := w.Run(bodies[name])
			if (err == nil) != (name == "clean") {
				t.Fatalf("Run = %v", err)
			}
			if got := goroutines() - before; got != 0 {
				t.Fatalf("Run left %d goroutines behind", got)
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

// TestCloseCollectsLargeWorlds: Close collects the Go heap exactly when
// the world drops closeCollectBytes of private frame contents or more.
// Shared ramp frames do not count, so a world that wrote a large ramp
// payload skips the collection.
func TestCloseCollectsLargeWorlds(t *testing.T) {
	const half = closeCollectBytes / 2 // per rank, on two ranks
	cases := []struct {
		name    string
		private int // bytes of private contents each rank writes
		ramp    int // bytes of whole-frame ramp payload each rank writes
		collect bool
	}{
		{"small", half - 2*4096, 0, false}, // a frame short even if va is not page-aligned
		{"ramp", 0, 2 * half, false},
		{"large", half, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := mustWorld(t, defaultCfg(2))
			err := w.Run(func(r *Rank) error {
				va, err := r.Malloc(uint64(c.private + c.ramp))
				if err != nil {
					return err
				}
				if err := r.WriteBytes(va, bytes.Repeat([]byte{7}, c.private)); err != nil {
					return err
				}
				return r.WriteRamp(va+vm.VA(c.private), 0, c.ramp)
			})
			if err != nil {
				t.Fatal(err)
			}
			before := forcedGCs()
			w.Close()
			want := uint32(0)
			if c.collect {
				want = 1
			}
			if got := forcedGCs() - before; got != want {
				t.Fatalf("Close forced %d collections, want %d", got, want)
			}
		})
	}
}

// forcedGCs counts the collections runtime.GC has run.
func forcedGCs() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumForcedGC
}
