// Command sweeprun executes a declarative experiment grid — workloads ×
// machines × placement strategies × fault specs, replicated over seeds —
// on a worker pool, and emits the canonical BENCH_<name>.json document
// with per-cell statistics and paired strategy comparisons. With
// -baseline and -gate it compares the run against a committed baseline
// and exits non-zero naming every regressed cell; any cell whose run
// fails also produces a non-zero exit naming the cell, without aborting
// sibling cells.
//
// Usage:
//
//	sweeprun -grid seed -o BENCH_seed.json
//	sweeprun -grid smoke -workers 8 -table
//	sweeprun -grid seed -baseline BENCH_seed.json -gate -tol 5
//	sweeprun -grid @mygrid.json -trace slowest.json
//	sweeprun -grid scale -stripped BENCH_scale.det.json
//	sweeprun -grid modern -o /dev/null -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/hostprof"
	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/sweep"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sweeprun: %v\n", err)
	os.Exit(1)
}

// listPad indents a grid's dimension-breakdown lines under its summary
// row in -list output.
const listPad = "          "

func main() {
	gridArg := flag.String("grid", "seed", "grid to run: a built-in name (see -list) or @file.json")
	out := flag.String("o", "-", "write the BENCH document to this file ('-' = stdout)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	baseline := flag.String("baseline", "", "BENCH document to gate against")
	gate := flag.Bool("gate", false, "fail (non-zero exit) on any cell regressed beyond -tol vs -baseline")
	tol := flag.Float64("tol", 5, "gate tolerance in percent of the baseline primary-metric mean")
	table := flag.Bool("table", false, "print the statistics and paired-comparison tables to stderr")
	stripped := flag.String("stripped", "", "also write a copy with wall-clock metrics stripped — the byte-comparable deterministic view")
	traceFlag := flag.String("trace", "", "re-run the slowest cell with tracing and write the Perfetto trace here")
	requireBest := flag.String("require-best", "", "fail unless this strategy is best-or-tied on the primary metric in every cell group")
	list := flag.Bool("list", false, "list built-in grids, workloads and strategies, then exit")
	prof := hostprof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("grids:")
		for _, g := range sweep.BuiltinGrids() {
			cells, runs, err := g.Counts()
			if err != nil {
				fail(err)
			}
			faults := len(g.Faults)
			if faults == 0 {
				faults = 1
			}
			fmt.Printf("  %-8s %d workload(s) x %d machine(s) x %d strategy(ies) x %d fault spec(s) x %d seed(s) = %d cell(s), %d run(s)\n",
				g.Name, len(g.Workloads), len(g.Machines), len(g.Strategies), faults, len(g.Seeds), cells, runs)
			fmt.Printf("%s workloads:  %s\n", listPad, strings.Join(g.Workloads, ", "))
			fmt.Printf("%s strategies: %s\n", listPad, strings.Join(g.Strategies, ", "))
			if len(g.Faults) > 0 {
				fmt.Printf("%s faults:     %s\n", listPad, strings.Join(g.Faults, "; "))
			}
			if g.Ranks > 0 {
				fmt.Printf("%s ranks:      %d\n", listPad, g.Ranks)
			}
		}
		fmt.Println("workloads:")
		for _, w := range sweep.Workloads() {
			dir := "lower is better"
			if w.HigherIsBetter {
				dir = "higher is better"
			}
			fmt.Printf("  %-14s primary %s (%s)\n", w.Name, w.Primary, dir)
		}
		fmt.Println("strategies:")
		for _, s := range mpi.Strategies() {
			pol := s.Policy
			if pol == "" {
				pol = "-"
			}
			fmt.Printf("  %-16s allocator=%s lazy_dereg=%v huge_att=%v policy=%s\n", s.Name, s.Allocator, s.LazyDereg, s.HugeATT, pol)
		}
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	grid, err := sweep.LoadGrid(*gridArg)
	if err != nil {
		fail(err)
	}
	bench, runErrs, err := sweep.Execute(grid, *workers)
	if err != nil {
		fail(err)
	}
	if err := bench.WriteFile(*out); err != nil {
		fail(err)
	}
	if *table {
		fmt.Fprint(os.Stderr, sweep.FormatCells(bench))
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, sweep.FormatComparisons(bench))
	}

	if *traceFlag != "" {
		slowest := sweep.SlowestCell(bench)
		if slowest == "" {
			fail(fmt.Errorf("no completed cell to trace"))
		}
		col, err := sweep.TraceCell(grid, slowest)
		if err != nil {
			fail(err)
		}
		if err := node.WriteTraceFile(*traceFlag, col); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "sweeprun: slowest cell %s traced to %s\n", slowest, *traceFlag)
	}

	// The profiles cover the grid and the traced re-run, not the checks.
	if err := stopProf(); err != nil {
		fail(err)
	}

	failed := false
	for _, re := range runErrs {
		fmt.Fprintf(os.Stderr, "sweeprun: run failed: %v\n", re)
		failed = true
	}

	if *gate {
		if *baseline == "" {
			fail(fmt.Errorf("-gate needs -baseline"))
		}
		base, err := sweep.LoadFile(*baseline)
		if err != nil {
			fail(err)
		}
		regs := sweep.Gate(bench, base, *tol)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "sweeprun: REGRESSION %s\n", r)
			failed = true
		}
		if len(regs) == 0 {
			fmt.Fprintf(os.Stderr, "sweeprun: gate ok (%d cell(s) vs %s, tolerance %.1f%%)\n",
				len(bench.Cells), *baseline, *tol)
		}
	}

	if *requireBest != "" {
		viols := sweep.RequireBest(bench, *requireBest)
		for _, v := range viols {
			fmt.Fprintf(os.Stderr, "sweeprun: NOT BEST %s\n", v)
			failed = true
		}
		if len(viols) == 0 {
			fmt.Fprintf(os.Stderr, "sweeprun: %s best-or-tied in every cell group\n", *requireBest)
		}
	}

	// Strip last: gating above still needs the wall metrics.
	if *stripped != "" {
		bench.StripWall()
		if err := bench.WriteFile(*stripped); err != nil {
			fail(err)
		}
	}

	if failed {
		os.Exit(1)
	}
}
