// Command sgebench regenerates Figure 3 of the paper: send work-request
// duration (in TBR ticks, split into post and poll) for different numbers
// of scatter/gather elements over a ladder of SGE sizes.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/node"
	"repro/internal/wrbench"
)

func main() {
	counts := flag.String("sges", "1,2,4,8", "comma-separated SGE counts (Figure 3 plots 1,2,4,8; the text also discusses 128)")
	env := cli.New("sgebench").
		MachineFlag("systemp").
		StatsFlag("emit per-node telemetry as JSON instead of the table").
		PolicyFlag().
		Parse()
	m := env.Machine
	var sgeCounts []int
	for _, c := range strings.Split(*counts, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || n < 1 {
			env.Failf("bad SGE count %q", c)
		}
		sgeCounts = append(sgeCounts, n)
	}
	sizes := wrbench.DefaultSGESizes()
	results, nodes, err := wrbench.SGESweep(node.Config{Machine: m, Faults: env.Spec, Trace: env.Col, Policy: env.Policy}, sgeCounts, sizes)
	if err != nil {
		env.Fail(err)
	}
	env.WriteTrace()
	if env.Stats {
		env.EmitReports([]node.Report{env.NewReport("sge-sweep", m.Name, nodes)})
		return
	}
	fmt.Printf("send operations with different number of scatter gather elements (%s)\n", m.Name)
	fmt.Printf("%-10s", "SGE size")
	for _, c := range sgeCounts {
		fmt.Printf("%8d SGE%s post/poll", c, map[bool]string{true: "s", false: " "}[c > 1])
	}
	fmt.Println()
	for _, size := range sizes {
		fmt.Printf("%-10d", size)
		for _, c := range sgeCounts {
			for _, r := range results {
				if r.SGEs == c && r.SGESize == size {
					fmt.Printf("%12d /%9d", r.PostTicks, r.PollTicks)
				}
			}
		}
		fmt.Println()
	}
}
