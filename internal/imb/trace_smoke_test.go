package imb

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/trace"
)

// render runs one traced experiment and renders the trace.
func render(t *testing.T, run func(*trace.Collector) error) []byte {
	t.Helper()
	col := trace.NewCollector()
	if err := run(col); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceBytes runs one traced SendRecv ladder and renders the trace.
func traceBytes(t *testing.T, spec *faults.Spec) []byte {
	t.Helper()
	return render(t, func(col *trace.Collector) error {
		_, _, err := SendRecv(mpi.Config{
			Machine:   machine.Opteron(),
			Ranks:     2,
			Allocator: mpi.AllocHuge,
			LazyDereg: true,
			HugeATT:   true,
			Faults:    spec,
			Trace:     col,
		}, []int{64 << 10, 1 << 20})
		return err
	})
}

// regTraceBytes runs one traced registration sweep and renders the
// trace. It runs clean: the sweep pins up to 2x64 MiB, which a memlock
// fault correctly rejects.
func regTraceBytes(t *testing.T) []byte {
	t.Helper()
	return render(t, func(col *trace.Collector) error {
		_, err := RegistrationSweep(node.Config{Machine: machine.Opteron(), Trace: col},
			[]uint64{2 << 20, 8 << 20, 64 << 20})
		return err
	})
}

// TestTraceBytesIdenticalAcrossRuns is the determinism smoke test: the
// same seed and spec must render byte-identical trace files, including
// under fault injection, for the SendRecv ladder and the registration
// sweep.
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
	if a, b := regTraceBytes(t), regTraceBytes(t); len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("registration-sweep trace bytes differ or empty: %d vs %d bytes", len(a), len(b))
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
	reg, err := trace.ParsePerfetto(bytes.NewReader(regTraceBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Spans)+len(reg.Events) == 0 {
		t.Fatal("registration sweep traced nothing")
	}
	for _, b := range reg.Breakdowns() {
		if b.Total() != reg.Elapsed() {
			t.Fatalf("registration sweep %s: breakdown total %d != elapsed %d", b.Name, b.Total(), reg.Elapsed())
		}
	}
}
