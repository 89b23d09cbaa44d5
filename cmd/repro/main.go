// Command repro runs the complete evaluation of the paper — every figure
// and quantitative claim — and prints the regenerated tables in one go.
// This is the one-command path to the EXPERIMENTS.md record.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/faults"
	"repro/internal/hostprof"
	"repro/internal/imb"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/wrbench"
)

// options is one resolved command line.
type options struct {
	quick, stats bool
	// policy is the validated -policy selection.
	policy string
	// spec is the parsed -faults spec (nil = clean).
	spec *faults.Spec
	// col is the -trace collector, nil when -trace is absent, with its
	// "tool" and "faults" metadata pre-set. It records the E3 Figure 5
	// runs in full mode; under -stats it records the telemetry run.
	col       *trace.Collector
	tracePath string
	// prof holds the -cpuprofile and -memprofile paths.
	prof *hostprof.Flags
}

// usageError marks a command-line syntax error, which the flag set has
// already reported together with the usage text.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// parseFlags resolves args, rejecting an unknown -policy or a malformed
// -faults spec. The environment sets no flag.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "skip the slow NAS runs")
	stats := fs.Bool("stats", false, "emit per-node telemetry of a small Figure 5 run as JSON and exit")
	// The default keeps every placement decision exactly the configured
	// strategy's while the decision counters come for free.
	pol := fs.String("policy", string(policy.Static), "placement policy (static|threshold|adaptive)")
	spec := fs.String("faults", "", "deterministic fault spec, e.g. seed=7,hugecap=8,memlock=16m (see README)")
	tracePath := fs.String("trace", "", "write a Perfetto trace of the run to this file ('-' = stdout)")
	prof := hostprof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return options{}, usageError{err}
	}
	o := options{quick: *quick, stats: *stats, policy: *pol, tracePath: *tracePath, prof: prof}
	if _, err := policy.ParseKind(o.policy); err != nil {
		return options{}, err
	}
	var err error
	if o.spec, err = faults.ParseSpec(*spec); err != nil {
		return options{}, err
	}
	if o.tracePath != "" {
		o.col = trace.NewCollector()
		o.col.SetMeta("tool", "repro")
		o.col.SetMeta("faults", o.spec.String())
	}
	return o, nil
}

// run parses args and writes the figure tables, or under -stats the
// telemetry JSON, to w.
func run(w io.Writer, args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProf, err := o.prof.Start()
	if err != nil {
		return err
	}
	if o.stats {
		err = runStats(w, o)
	} else {
		_, err = figures(w, o)
	}
	return errors.Join(err, stopProf())
}

// runStats runs a small Figure 5 cell under the paper's recommended
// placement and emits every rank's host telemetry as JSON — the
// machine-readable per-node perf snapshot behind -stats, in the shared
// []node.Report schema.
func runStats(w io.Writer, o options) error {
	m := machine.Opteron()
	_, nodes, err := imb.SendRecv(mpi.MustStrategy("huge-lazy").Apply(mpi.Config{
		Machine: m, Faults: o.spec, Trace: o.col, Policy: o.policy,
	}), []int{64 << 10, 1 << 20})
	if err != nil {
		return err
	}
	rep := node.NewReport("repro", "sendrecv", m.Name, o.spec.String(), nodes)
	if err := node.WriteReports(w, []node.Report{rep}); err != nil {
		return err
	}
	if o.col == nil {
		return nil
	}
	return node.WriteTraceFile(o.tracePath, o.col)
}

// figures writes every experiment table, E1 to E9, and returns the
// Figure 6 rows it printed keyed by machine name (nil under -quick).
func figures(w io.Writer, o options) (map[string][]nas.Fig6Row, error) {
	fmt.Fprintln(w, "=== E1 (Figure 3): work-request duration by SGE count (IBM System p, TBR ticks) ===")
	sysp := machine.SystemP()
	wr := node.Config{Machine: sysp, Faults: o.spec, Policy: o.policy}
	rs, err := wrbench.SGESweep(wr, []int{1, 2, 4, 8, 128}, []int{1, 64, 128, 512, 4096})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%6s %8s %10s %10s %10s\n", "sges", "sgesize", "post", "poll", "total")
	for _, r := range rs {
		fmt.Fprintf(w, "%6d %8d %10d %10d %10d\n", r.SGEs, r.SGESize, r.PostTicks, r.PollTicks, r.Total())
	}
	one, four := findWR(rs, 1, 128), findWR(rs, 4, 128)
	fmt.Fprintf(w, "paper: 4 SGEs at <=128B only ~14%% more costly; measured: %+.1f%%\n",
		100*(float64(four.Total())/float64(one.Total())-1))
	p1, p128 := findWR(rs, 1, 64), findWR(rs, 128, 64)
	fmt.Fprintf(w, "paper: post(128 SGEs) ~ 3x post(1 SGE); measured: %.2fx\n\n",
		float64(p128.PostTicks)/float64(p1.PostTicks))

	fmt.Fprintln(w, "=== E2 (Figure 4): work-request duration by buffer offset (IBM System p) ===")
	or, err := wrbench.OffsetSweep(wr, []int{0, 16, 32, 48, 64, 80, 96, 128}, []int{8, 64})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%8s %14s %14s\n", "offset", "8B total", "64B total")
	for _, off := range []int{0, 16, 32, 48, 64, 80, 96, 128} {
		var a, b int64
		for _, r := range or {
			if r.Offset != off {
				continue
			}
			if r.SGESize == 8 {
				a = int64(r.Total())
			} else {
				b = int64(r.Total())
			}
		}
		fmt.Fprintf(w, "%8d %14d %14d\n", off, a, b)
	}
	fmt.Fprintln(w, "paper: up to 8% swing, optimum near offset 64")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "=== E3 (Figure 5): IMB SendRecv bandwidth, AMD Opteron (MB/s) ===")
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	curves, err := imb.RunFig5(mpi.Config{Machine: machine.Opteron(), Faults: o.spec, Trace: o.col, Policy: o.policy}, sizes)
	if err != nil {
		return nil, err
	}
	if o.col != nil {
		if err := node.WriteTraceFile(o.tracePath, o.col); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: E3 Figure 5 runs written to %s\n", o.tracePath)
	}
	fmt.Fprintf(w, "%-10s", "size[KB]")
	for _, c := range imb.Fig5Curves {
		fmt.Fprintf(w, " %28s", c.Label)
	}
	fmt.Fprintln(w)
	for i, s := range sizes {
		fmt.Fprintf(w, "%-10d", s/1024)
		for _, c := range imb.Fig5Curves {
			fmt.Fprintf(w, " %28.1f", curves[c.Label][i].BandwidthMBs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper: hugepages+no-lazy approach max (~1750); lazy curves identical for both page sizes")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "=== E4 (Section 5.1): Xeon hugepage-ATT effect (MB/s at 4 MiB) ===")
	for _, name := range []string{"huge-lazy-noatt", "huge-lazy"} {
		st := mpi.MustStrategy(name)
		r, _, err := imb.SendRecv(st.Apply(mpi.Config{
			Machine: machine.Xeon(), Faults: o.spec, Policy: o.policy,
		}), []int{4 << 20})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "driver patched=%-5v bandwidth=%.1f MB/s (ATT miss rate %.2f)\n",
			st.HugeATT, r[0].BandwidthMBs, r[0].ATTMissRate)
	}
	fmt.Fprintln(w, "paper: up to +6% with 2MB translations")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "=== E9: registration cost by page size (AMD Opteron) ===")
	regs, err := imb.RegistrationSweep(node.Config{Machine: machine.Opteron(), Faults: o.spec}, []uint64{2 << 20, 8 << 20, 32 << 20})
	if err != nil {
		return nil, err
	}
	for _, r := range regs {
		fmt.Fprintf(w, "size %6d KB: 4K pages %12v, 2M pages %10v (%.1f%%)\n",
			r.Bytes/1024, r.SmallReg, r.HugeReg, 100*r.HugeFrac)
	}
	fmt.Fprintln(w, "paper: hugepage registration ~1% of small-page time")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "=== E7 (Section 2/3): allocator comparison on the Abinit trace ===")
	libcT, hugeT, err := repro.AbinitComparison(machine.Opteron())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "libc %v, hugepage library %v -> %.1fx faster\n", libcT, hugeT,
		float64(libcT)/float64(hugeT))
	fmt.Fprintln(w, "paper: \"allocation benefits of up to 10 times\" (full table: examples/allocator)")
	fmt.Fprintln(w)

	if o.quick {
		fmt.Fprintln(w, "=== E5-E6 (Figure 6): skipped (-quick) ===")
		return nil, nil
	}
	fmt.Fprintln(w, "=== E5-E6 (Figure 6 + PAPI): NAS benchmarks, 8 ranks ===")
	fig6 := map[string][]nas.Fig6Row{}
	for _, m := range []*machine.Machine{machine.Opteron(), machine.SystemP()} {
		rows, err := nas.RunFig6(mpi.Config{Machine: m, Ranks: 8, Faults: o.spec, Policy: o.policy}, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, nas.FormatFig6(m.Name, rows))
		fmt.Fprintln(w)
		fig6[m.Name] = rows
	}
	fmt.Fprintln(w, "paper: comm >8% except MG and IS; overall all positive except IS;")
	fmt.Fprintln(w, "       TLB misses up to 8x with EP, except LU; EP computation still improves")
	return fig6, nil
}

func main() {
	err := run(os.Stdout, os.Args[1:])
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(usageError)):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
}

func findWR(rs []wrbench.Result, sges, size int) wrbench.Result {
	for _, r := range rs {
		if r.SGEs == sges && r.SGESize == size {
			return r
		}
	}
	panic("missing combination")
}
