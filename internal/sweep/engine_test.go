package sweep

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/verbs"
)

// barrierHook lets one test at a time inject behavior into the
// test/barrier workload (the registry is process-global, so the
// workload is registered once and re-pointed per test).
var barrierHook atomic.Value // of func() error

var registerTestWorkloads = sync.OnceValue(func() error {
	return Register(Workload{
		Name:    "test/barrier",
		Primary: "ok",
		Run: func(c RunContext) (Metrics, error) {
			if f, _ := barrierHook.Load().(func() error); f != nil {
				if err := f(); err != nil {
					return nil, err
				}
			}
			return Metrics{"ok": 1, VirtTicks: 1}, nil
		},
	})
})

func testGrid(workload string, seeds ...uint64) Grid {
	return Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{workload},
		Strategies: []string{"small-lazy"},
		Seeds:      seeds,
	}
}

// TestExecuteByteIdenticalAcrossWorkerCounts is the core determinism
// guarantee: the same grid renders to the same BENCH bytes at any pool
// size. CI re-checks this across processes (GOMAXPROCS=1 vs 4 + cmp).
func TestExecuteByteIdenticalAcrossWorkerCounts(t *testing.T) {
	g := Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit", "wr/sge"},
		Strategies: []string{"small-lazy", "huge-lazy"},
		Faults:     []string{"seed=3,attevict=800,wr=200"},
		Seeds:      []uint64{1, 2, 3},
	}
	render := func(workers int) []byte {
		b, runErrs, err := Execute(g, workers)
		if err != nil || len(runErrs) != 0 {
			t.Fatalf("workers=%d: err=%v runErrs=%v", workers, err, runErrs)
		}
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := render(1)
	for _, workers := range []int{2, 4, 8} {
		if !bytes.Equal(one, render(workers)) {
			t.Fatalf("BENCH bytes differ between 1 and %d workers", workers)
		}
	}
}

// TestExecuteRampWritersConcurrently runs two workers over jobs that
// write ramp payloads (KV decode rows, the IMB send buffer), so two host
// threads read the process-wide shared ramp frames at once; under -race
// this is the check that the frames are built once and never written.
// The document must match a one-worker run byte for byte.
func TestExecuteRampWritersConcurrently(t *testing.T) {
	g := Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{"kv/decode", "imb/sendrecv"},
		Strategies: []string{"huge-lazy"},
		Seeds:      []uint64{1, 2},
	}
	render := func(workers int) []byte {
		b, runErrs, err := Execute(g, workers)
		if err != nil || len(runErrs) != 0 {
			t.Fatalf("workers=%d: err=%v runErrs=%v", workers, err, runErrs)
		}
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(2), render(1)) {
		t.Fatal("BENCH bytes differ between 1 and 2 workers")
	}
}

// TestExecuteOverlapsReplicates proves the pool genuinely runs
// replicates concurrently: every replicate blocks on a barrier that only
// opens once all four have arrived, so a sequential engine would time
// out instead of completing.
func TestExecuteOverlapsReplicates(t *testing.T) {
	if err := registerTestWorkloads(); err != nil {
		t.Fatal(err)
	}
	const n = 4
	var arrived int32
	release := make(chan struct{})
	barrierHook.Store(func() error {
		if atomic.AddInt32(&arrived, 1) == n {
			close(release)
		}
		select {
		case <-release:
			return nil
		case <-time.After(30 * time.Second): //reprolint:ignore liveness timeout for a concurrency proof, not a measurement
			return errors.New("barrier never filled: replicates did not overlap")
		}
	})
	defer barrierHook.Store(func() error { return nil })
	b, runErrs, err := Execute(testGrid("test/barrier", 1, 2, 3, 4), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range runErrs {
		t.Errorf("replicate failed: %v", re)
	}
	if len(b.Cells) != 1 || b.Cells[0].Stats["ok"].N != n {
		t.Fatalf("expected one cell with %d replicates, got %+v", n, b.Cells)
	}
}

// TestExecuteMemlockCellFailsWithoutAbortingSiblings injects a fault
// spec that makes one cell's registrations exceed RLIMIT_MEMLOCK and
// checks the contract: the failing cell is reported by key with the
// verbs error preserved, and the clean sibling cell still completes with
// full statistics.
func TestExecuteMemlockCellFailsWithoutAbortingSiblings(t *testing.T) {
	g := Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{"imb/pingpong"},
		Strategies: []string{"small-lazy"},
		Faults:     []string{"", "memlock=8k"},
		Seeds:      []uint64{1, 2},
	}
	b, runErrs, err := Execute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) != 2 {
		t.Fatalf("got %d run errors, want one per faulted seed: %v", len(runErrs), runErrs)
	}
	for _, re := range runErrs {
		if re.Cell != "imb/pingpong/opteron/small-lazy/memlock=8k" {
			t.Errorf("run error names cell %q", re.Cell)
		}
		if !errors.Is(re.Err, verbs.ErrMemlockExceeded) {
			t.Errorf("run error does not wrap ErrMemlockExceeded: %v", re.Err)
		}
	}
	if len(b.Cells) != 1 {
		t.Fatalf("got %d surviving cells, want the clean sibling only", len(b.Cells))
	}
	c := &b.Cells[0]
	if c.Key() != "imb/pingpong/opteron/small-lazy" {
		t.Fatalf("surviving cell %s, want the clean one", c.Key())
	}
	if c.Stats["lat_ticks_64k"].N != 2 {
		t.Fatalf("clean cell aggregated %d replicates, want 2", c.Stats["lat_ticks_64k"].N)
	}
}

func TestSlowestCellAndTraceCell(t *testing.T) {
	g := Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit", "wr/sge"},
		Strategies: []string{"small-lazy"},
		Seeds:      []uint64{1},
	}
	b, runErrs, err := Execute(g, 2)
	if err != nil || len(runErrs) != 0 {
		t.Fatalf("err=%v runErrs=%v", err, runErrs)
	}
	slowest := SlowestCell(b)
	if slowest == "" {
		t.Fatal("no slowest cell")
	}
	var want string
	var ticks float64 = -1
	for i := range b.Cells {
		if d := b.Cells[i].Stats[VirtTicks]; d.Mean > ticks {
			want, ticks = b.Cells[i].Key(), d.Mean
		}
	}
	if slowest != want {
		t.Fatalf("SlowestCell = %s, want %s", slowest, want)
	}
	col, err := TraceCell(g, slowest)
	if err != nil {
		t.Fatal(err)
	}
	if col == nil {
		t.Fatal("TraceCell returned no collector")
	}
	if _, err := TraceCell(g, "no/such/cell"); err == nil {
		t.Fatal("TraceCell accepted an unknown cell key")
	}
}
