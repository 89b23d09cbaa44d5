package imb

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// traceBytes runs one traced SendRecv ladder and renders the trace.
func traceBytes(t *testing.T, spec *faults.Spec) []byte {
	t.Helper()
	col := trace.NewCollector()
	_, _, err := SendRecv(mpi.Config{
		Machine:   machine.Opteron(),
		Ranks:     2,
		Allocator: mpi.AllocHuge,
		LazyDereg: true,
		HugeATT:   true,
		Faults:    spec,
		Trace:     col,
	}, []int{64 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceBytesIdenticalAcrossRuns is the determinism smoke test: the
// same seed and spec must render byte-identical trace files, including
// under fault injection (the CI trace-golden step runs the same check
// through the cmd tools).
func TestTraceBytesIdenticalAcrossRuns(t *testing.T) {
	spec, err := faults.ParseSpec("seed=7,hugecap=8,hugefail=40,shrink=100:2,memlock=16m,wr=50,attevict=400")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*faults.Spec{nil, spec} {
		a, b := traceBytes(t, s), traceBytes(t, s)
		if len(a) == 0 {
			t.Fatal("trace rendered empty")
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("same-seed trace bytes differ (spec=%v): %d vs %d bytes", s, len(a), len(b))
		}
	}
}

// TestTraceBreakdownPartitionsElapsed is the acceptance gate for the IMB
// scenario: parsed back, every rank's per-layer breakdown must sum
// exactly to the run's elapsed virtual ticks.
func TestTraceBreakdownPartitionsElapsed(t *testing.T) {
	d, err := trace.ParsePerfetto(bytes.NewReader(traceBytes(t, nil)))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := d.Elapsed()
	if elapsed == 0 {
		t.Fatal("trace has no elapsed time")
	}
	bs := d.Breakdowns()
	if len(bs) != 2 {
		t.Fatalf("got %d breakdowns, want 2 ranks", len(bs))
	}
	for _, b := range bs {
		if b.Total() != elapsed {
			t.Fatalf("%s: breakdown total %d != elapsed %d", b.Name, b.Total(), elapsed)
		}
		if b.Self[string(trace.LMPI)] == 0 {
			t.Fatalf("%s: no MPI time attributed", b.Name)
		}
	}
}
