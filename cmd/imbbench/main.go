// Command imbbench regenerates Figure 5 of the paper (IMB SendRecv
// bandwidth under the four page-size x lazy-deregistration
// configurations), the Xeon ATT experiment (E4), and the registration
// cost sweep (E9).
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/cli"
	"repro/internal/imb"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/node"
)

// env carries the shared flag configuration (fault spec and trace
// collector), used by every mode.
var env *cli.Env

func main() {
	att := flag.Bool("att", false, "run the Xeon ATT experiment (patched vs unpatched driver) instead of Figure 5")
	reg := flag.Bool("reg", false, "run the registration-cost sweep instead of Figure 5")
	ranks := flag.Int("ranks", 0, "rank count for the SendRecv-chain modes (0 = mode default: 2, Exchange 4)")
	pingpong := flag.Bool("pingpong", false, "run the IMB PingPong latency test instead of Figure 5")
	exchange := flag.Bool("exchange", false, "run the IMB Exchange test instead of Figure 5")
	env = cli.New("imbbench").
		MachineFlag("opteron").
		StatsFlag("run a short SendRecv ladder and emit per-node telemetry as JSON").
		PolicyFlag().
		Parse()
	m := env.Machine
	switch {
	case env.Stats:
		runStats(m, orDefault(*ranks, 2))
	case *reg:
		runReg(m)
	case *att:
		runATT(m, orDefault(*ranks, 2))
	case *pingpong:
		runPingPong(m)
	case *exchange:
		runExchange(m, orDefault(*ranks, 4))
	default:
		runFig5(m, orDefault(*ranks, 2))
	}
	env.WriteTrace()
}

// orDefault substitutes a mode's default rank count for the flag's
// unset zero value.
func orDefault(ranks, def int) int {
	if ranks == 0 {
		return def
	}
	return ranks
}

// runStats runs the recommended-placement SendRecv over a short size
// ladder and prints every rank's host telemetry as JSON.
func runStats(m *machine.Machine, ranks int) {
	_, nodes, err := imb.SendRecv(hugeLazy(mpi.Config{Machine: m, Ranks: ranks}), []int{64 << 10, 1 << 20, 4 << 20})
	if err != nil {
		env.Fail(err)
	}
	env.EmitReports([]node.Report{env.NewReport("sendrecv", m.Name, nodes)})
}

// hugeLazy applies the paper's recommended placement (the table's
// "huge-lazy") over cfg, with the shared fault, trace and policy flags.
func hugeLazy(cfg mpi.Config) mpi.Config {
	cfg.Faults, cfg.Trace, cfg.Policy = env.Spec, env.Col, env.Policy
	return mpi.MustStrategy("huge-lazy").Apply(cfg)
}

func runPingPong(m *machine.Machine) {
	sizes := []int{0, 1, 64, 1024, 8 << 10, 64 << 10, 1 << 20}
	rs, err := imb.PingPong(hugeLazy(mpi.Config{Machine: m}), sizes)
	if err != nil {
		env.Fail(err)
	}
	fmt.Printf("IMB PingPong (%s)\n%-12s %14s %14s\n", m.Name, "bytes", "latency [us]", "ticks")
	for _, r := range rs {
		fmt.Printf("%-12d %14.2f %14d\n", r.Bytes, r.LatencyUsec, r.LatencyTicks)
	}
}

func runExchange(m *machine.Machine, ranks int) {
	sizes := []int{4 << 10, 64 << 10, 1 << 20}
	rs, err := imb.Exchange(hugeLazy(mpi.Config{Machine: m, Ranks: ranks}), sizes)
	if err != nil {
		env.Fail(err)
	}
	fmt.Printf("IMB Exchange, %d ranks (%s)\n%-12s %14s\n", ranks, m.Name, "bytes", "MB/s")
	for _, r := range rs {
		fmt.Printf("%-12d %14.1f\n", r.Bytes, r.BandwidthMBs)
	}
}

func runFig5(m *machine.Machine, ranks int) {
	sizes := imb.DefaultSizes()
	curves, err := imb.RunFig5(mpi.Config{
		Machine: m, Ranks: ranks, Faults: env.Spec, Trace: env.Col, Policy: env.Policy,
	}, sizes)
	if err != nil {
		env.Fail(err)
	}
	labels := make([]string, 0, len(curves))
	for _, c := range imb.Fig5Curves {
		labels = append(labels, c.Label)
	}
	fmt.Printf("bandwidth comparison with different page sizes (%s)\n", m.Name)
	fmt.Printf("%-14s", "size [KB]")
	for _, l := range labels {
		fmt.Printf("  %-32s", l)
	}
	fmt.Println()
	for i, size := range sizes {
		fmt.Printf("%-14d", size/1024)
		for _, l := range labels {
			fmt.Printf("  %-32.1f", curves[l][i].BandwidthMBs)
		}
		fmt.Println()
	}
}

func runATT(m *machine.Machine, ranks int) {
	sizes := []int{1 << 20, 4 << 20, 16 << 20}
	fmt.Printf("hugepage ATT-entry effect with lazy deregistration (%s)\n", m.Name)
	fmt.Printf("%-12s %16s %16s %8s\n", "size [KB]", "4K entries MB/s", "2M entries MB/s", "gain")
	run := func(strategy, prefix string) []imb.SendRecvResult {
		rs, _, err := imb.SendRecv(mpi.MustStrategy(strategy).Apply(mpi.Config{
			Machine: m, Ranks: ranks,
			Faults: env.Spec, Trace: env.Col, TracePrefix: prefix,
			Policy: env.Policy,
		}), sizes)
		if err != nil {
			env.Fail(err)
		}
		return rs
	}
	up, p := run("huge-lazy-noatt", "unpatched/"), run("huge-lazy", "patched/")
	for i, size := range sizes {
		fmt.Printf("%-12d %16.1f %16.1f %+7.1f%%\n", size/1024,
			up[i].BandwidthMBs, p[i].BandwidthMBs,
			100*(p[i].BandwidthMBs/up[i].BandwidthMBs-1))
	}
}

func runReg(m *machine.Machine) {
	var sizes []uint64
	for s := uint64(2 << 20); s <= 64<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	rows, err := imb.RegistrationSweep(node.Config{Machine: m, Faults: env.Spec, Trace: env.Col}, sizes)
	if err != nil {
		env.Fail(err)
	}
	fmt.Printf("memory registration cost by page size (%s)\n", m.Name)
	fmt.Printf("%-12s %14s %14s %10s %10s %10s\n",
		"size [KB]", "4K pages", "2M pages", "ratio", "4K MTTs", "2M MTTs")
	for _, r := range rows {
		fmt.Printf("%-12d %14v %14v %9.1f%% %10d %10d\n",
			r.Bytes/1024, r.SmallReg, r.HugeReg, 100*r.HugeFrac, r.SmallMTTs, r.HugeMTTs)
	}
}
