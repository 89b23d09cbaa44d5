// Command nasbench regenerates Figure 6 of the paper: the NAS benchmark
// improvement split (communication / other / overall) with the hugepage
// library versus libc, plus the Section 5.2 TLB-miss table.
package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/cli"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/node"
)

func main() {
	ranks := flag.Int("ranks", 8, "rank count (paper: 2 nodes x 4 processes)")
	kernels := flag.String("kernels", "", "comma-separated kernel subset (default: all)")
	counters := flag.Bool("counters", false, "print absolute PAPI TLB counters per kernel")
	profile := flag.Bool("profile", false, "print the mpiP-style per-callsite profile of each hugepage run")
	env := cli.New("nasbench").
		MachinesFlag("opteron,systemp").
		StatsFlag("emit per-node telemetry of every run as JSON instead of the tables").
		PolicyFlag().
		Parse()

	var ks []nas.Kernel
	if *kernels != "" {
		for _, n := range strings.Split(*kernels, ",") {
			k := nas.ByName(strings.TrimSpace(n))
			if k == nil {
				env.Failf("unknown kernel %q", n)
			}
			ks = append(ks, k)
		}
	}
	var reports []node.Report
	for _, m := range env.Machines {
		rows, err := nas.RunFig6(mpi.Config{
			Machine: m, Ranks: *ranks, Faults: env.Spec, Trace: env.Col, Policy: env.Policy,
		}, ks)
		if err != nil {
			env.Fail(err)
		}
		if env.Stats {
			for _, r := range rows {
				for _, res := range []nas.Result{r.Small, r.Huge} {
					reports = append(reports, env.NewReport(
						res.Kernel+"/"+string(res.Allocator), m.Name, res.Nodes))
				}
			}
			continue
		}
		fmt.Print(nas.FormatFig6(m.Name, rows))
		if *profile {
			for _, r := range rows {
				fmt.Printf("\n--- %s, hugepage-library run ---\n%s", strings.ToUpper(r.Kernel), r.Huge.MPIProfile)
			}
		}
		if *counters {
			for _, r := range rows {
				fmt.Printf("%-4s libc: %s\n", strings.ToUpper(r.Kernel), r.Small.TLB)
				fmt.Printf("%-4s huge: %s\n", strings.ToUpper(r.Kernel), r.Huge.TLB)
				fmt.Printf("%-4s reg: libc=%v huge=%v  evict: libc=%d huge=%d  comm: libc=%v huge=%v\n",
					strings.ToUpper(r.Kernel), r.Small.RegTicks, r.Huge.RegTicks,
					r.Small.Evictions, r.Huge.Evictions, r.Small.Comm, r.Huge.Comm)
			}
		}
		fmt.Println()
	}
	if env.Stats {
		env.EmitReports(reports)
	}
	env.WriteTrace()
}
