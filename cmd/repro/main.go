// Command repro runs the complete evaluation of the paper — every figure
// and quantitative claim — and prints the regenerated tables in one go.
// This is the one-command path to the EXPERIMENTS.md record.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/imb"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/node"
	"repro/internal/wrbench"
)

// env carries the shared flag configuration. The -trace collector (nil
// when the flag is absent) records the E3 Figure 5 runs in full mode;
// under -stats it records the telemetry run itself.
var env *cli.Env

// runStats runs a small Figure 5 cell under the paper's recommended
// placement and emits every rank's host telemetry as JSON — the
// machine-readable per-node perf snapshot behind -stats, in the shared
// []node.Report schema.
func runStats(w io.Writer) error {
	m := machine.Opteron()
	_, nodes, err := imb.SendRecv(mpi.MustStrategy("huge-lazy").Apply(mpi.Config{
		Machine: m, Faults: env.Spec, Trace: env.Col, Policy: env.Policy,
	}), []int{64 << 10, 1 << 20})
	if err != nil {
		return err
	}
	return node.WriteReports(w, []node.Report{env.NewReport("sendrecv", m.Name, nodes)})
}

func main() {
	quick := flag.Bool("quick", false, "skip the slow NAS runs")
	env = cli.New("repro").
		StatsFlag("emit per-node telemetry of a small Figure 5 run as JSON and exit").
		PolicyFlag().
		Parse()
	spec, col := env.Spec, env.Col

	if env.Stats {
		if err := runStats(os.Stdout); err != nil {
			env.Fail(err)
		}
		env.WriteTrace()
		return
	}

	fmt.Println("=== E1 (Figure 3): work-request duration by SGE count (IBM System p, TBR ticks) ===")
	sysp := machine.SystemP()
	wr := node.Config{Machine: sysp, Faults: spec, Policy: env.Policy}
	rs, err := wrbench.SGESweep(wr, []int{1, 2, 4, 8, 128}, []int{1, 64, 128, 512, 4096})
	if err != nil {
		env.Fail(err)
	}
	fmt.Printf("%6s %8s %10s %10s %10s\n", "sges", "sgesize", "post", "poll", "total")
	for _, r := range rs {
		fmt.Printf("%6d %8d %10d %10d %10d\n", r.SGEs, r.SGESize, r.PostTicks, r.PollTicks, r.Total())
	}
	one, four := findWR(rs, 1, 128), findWR(rs, 4, 128)
	fmt.Printf("paper: 4 SGEs at <=128B only ~14%% more costly; measured: %+.1f%%\n",
		100*(float64(four.Total())/float64(one.Total())-1))
	p1, p128 := findWR(rs, 1, 64), findWR(rs, 128, 64)
	fmt.Printf("paper: post(128 SGEs) ~ 3x post(1 SGE); measured: %.2fx\n\n",
		float64(p128.PostTicks)/float64(p1.PostTicks))

	fmt.Println("=== E2 (Figure 4): work-request duration by buffer offset (IBM System p) ===")
	or, err := wrbench.OffsetSweep(wr, []int{0, 16, 32, 48, 64, 80, 96, 128}, []int{8, 64})
	if err != nil {
		env.Fail(err)
	}
	fmt.Printf("%8s %14s %14s\n", "offset", "8B total", "64B total")
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
		fmt.Printf("%8d %14d %14d\n", off, a, b)
	}
	fmt.Println("paper: up to 8% swing, optimum near offset 64")
	fmt.Println()

	fmt.Println("=== E3 (Figure 5): IMB SendRecv bandwidth, AMD Opteron (MB/s) ===")
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	curves, err := imb.RunFig5(mpi.Config{Machine: machine.Opteron(), Faults: spec, Trace: col, Policy: env.Policy}, sizes)
	if err != nil {
		env.Fail(err)
	}
	if col != nil {
		env.WriteTrace()
		fmt.Printf("trace: E3 Figure 5 runs written to %s\n", env.TracePath())
	}
	fmt.Printf("%-10s", "size[KB]")
	for _, c := range imb.Fig5Curves {
		fmt.Printf(" %28s", c.Label)
	}
	fmt.Println()
	for i, s := range sizes {
		fmt.Printf("%-10d", s/1024)
		for _, c := range imb.Fig5Curves {
			fmt.Printf(" %28.1f", curves[c.Label][i].BandwidthMBs)
		}
		fmt.Println()
	}
	fmt.Println("paper: hugepages+no-lazy approach max (~1750); lazy curves identical for both page sizes")
	fmt.Println()

	fmt.Println("=== E4 (Section 5.1): Xeon hugepage-ATT effect (MB/s at 4 MiB) ===")
	for _, name := range []string{"huge-lazy-noatt", "huge-lazy"} {
		st := mpi.MustStrategy(name)
		r, _, err := imb.SendRecv(st.Apply(mpi.Config{
			Machine: machine.Xeon(), Faults: spec, Policy: env.Policy,
		}), []int{4 << 20})
		if err != nil {
			env.Fail(err)
		}
		fmt.Printf("driver patched=%-5v bandwidth=%.1f MB/s (ATT miss rate %.2f)\n",
			st.HugeATT, r[0].BandwidthMBs, r[0].ATTMissRate)
	}
	fmt.Println("paper: up to +6% with 2MB translations")
	fmt.Println()

	fmt.Println("=== E9: registration cost by page size (AMD Opteron) ===")
	regs, err := imb.RegistrationSweep(node.Config{Machine: machine.Opteron(), Faults: spec}, []uint64{2 << 20, 8 << 20, 32 << 20})
	if err != nil {
		env.Fail(err)
	}
	for _, r := range regs {
		fmt.Printf("size %6d KB: 4K pages %12v, 2M pages %10v (%.1f%%)\n",
			r.Bytes/1024, r.SmallReg, r.HugeReg, 100*r.HugeFrac)
	}
	fmt.Println("paper: hugepage registration ~1% of small-page time")
	fmt.Println()

	fmt.Println("=== E7 (Section 2/3): allocator comparison on the Abinit trace ===")
	libcT, hugeT, err := repro.AbinitComparison(machine.Opteron())
	if err != nil {
		env.Fail(err)
	}
	fmt.Printf("libc %v, hugepage library %v -> %.1fx faster\n", libcT, hugeT,
		float64(libcT)/float64(hugeT))
	fmt.Println("paper: \"allocation benefits of up to 10 times\" (full table: examples/allocator)")
	fmt.Println()

	if *quick {
		fmt.Println("=== E5-E6 (Figure 6): skipped (-quick) ===")
		return
	}
	fmt.Println("=== E5-E6 (Figure 6 + PAPI): NAS benchmarks, 8 ranks ===")
	for _, m := range []*machine.Machine{machine.Opteron(), machine.SystemP()} {
		rows, err := nas.RunFig6(mpi.Config{Machine: m, Ranks: 8, Faults: spec, Policy: env.Policy}, nil)
		if err != nil {
			env.Fail(err)
		}
		fmt.Print(nas.FormatFig6(m.Name, rows))
		fmt.Println()
	}
	fmt.Println("paper: comm >8% except MG and IS; overall all positive except IS;")
	fmt.Println("       TLB misses up to 8x with EP, except LU; EP computation still improves")
}

func findWR(rs []wrbench.Result, sges, size int) wrbench.Result {
	for _, r := range rs {
		if r.SGEs == sges && r.SGESize == size {
			return r
		}
	}
	panic("missing combination")
}
