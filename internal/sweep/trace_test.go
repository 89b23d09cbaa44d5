package sweep

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWorkloadTracesDeterministic is the trace golden for the Section 4
// rig, the PingPong latency test, the allocator replay and a NAS kernel:
// each workload, traced twice under the same fault spec, must render
// byte-identical Perfetto bytes, and every process's per-layer
// breakdown must partition the trace's elapsed time exactly.
func TestWorkloadTracesDeterministic(t *testing.T) {
	spec, err := faults.ParseSpec("seed=7,hugecap=8,hugefail=40,shrink=100:2,memlock=16m,wr=50,attevict=400")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		workload string
		machine  *machine.Machine
		ranks    int
	}{
		{"wr/sge", machine.SystemP(), 0},
		{"wr/offset", machine.SystemP(), 0},
		{"imb/pingpong", machine.Opteron(), 0},
		{"alloc/abinit", machine.Opteron(), 0},
		{"nas/ep", machine.Opteron(), 4},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			w := WorkloadByName(c.workload)
			if w == nil {
				t.Fatalf("workload %q not registered", c.workload)
			}
			render := func() []byte {
				col := trace.NewCollector()
				_, err := w.Run(RunContext{
					Machine:  c.machine,
					Strategy: mpi.MustStrategy("huge-lazy"),
					Spec:     spec,
					Seed:     uint64(workload.DefaultAbinitParams().Seed),
					Ranks:    c.ranks,
					Trace:    col,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := col.WritePerfetto(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a, b := render(), render()
			if !bytes.Equal(a, b) {
				t.Fatalf("same-spec trace bytes differ: %d vs %d bytes", len(a), len(b))
			}
			d, err := trace.ParsePerfetto(bytes.NewReader(a))
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Procs) == 0 || len(d.Spans)+len(d.Events) == 0 {
				t.Fatalf("trace recorded nothing: %d processes, %d spans, %d events",
					len(d.Procs), len(d.Spans), len(d.Events))
			}
			elapsed := d.Elapsed()
			for _, bd := range d.Breakdowns() {
				if bd.Total() != elapsed {
					t.Errorf("%s: breakdown total %d != elapsed %d", bd.Name, bd.Total(), elapsed)
				}
			}
		})
	}
}
