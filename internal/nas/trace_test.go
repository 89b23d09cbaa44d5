package nas

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestTraceBreakdownPartitionsKernelRun is the acceptance gate for the
// NAS scenario: a traced kernel run, parsed back, must partition every
// rank's timeline exactly into per-layer self time plus idle summing to
// the job's elapsed virtual ticks — and the trace must be byte-stable
// across two same-seed runs.
func TestTraceBreakdownPartitionsKernelRun(t *testing.T) {
	run := func() []byte {
		col := trace.NewCollector()
		_, err := RunKernel(mpi.Config{
			Machine:   machine.Opteron(),
			Ranks:     4,
			Allocator: mpi.AllocHuge,
			LazyDereg: true,
			HugeATT:   true,
			Trace:     col,
		}, DefaultEP())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed NAS trace bytes differ: %d vs %d", len(a), len(b))
	}
	d, err := trace.ParsePerfetto(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := d.Elapsed()
	bs := d.Breakdowns()
	if len(bs) != 4 {
		t.Fatalf("got %d breakdowns, want 4 ranks", len(bs))
	}
	for _, bd := range bs {
		if bd.Total() != elapsed {
			t.Fatalf("%s: breakdown total %d != elapsed %d", bd.Name, bd.Total(), elapsed)
		}
		if bd.Self[string(trace.LApp)] == 0 {
			t.Fatalf("%s: kernel compute left no app-layer time", bd.Name)
		}
	}
}
