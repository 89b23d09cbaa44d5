// Command offsetbench regenerates Figure 4 of the paper: work-request
// duration (TBR ticks) versus the buffer's start offset within a memory
// page, for small buffer sizes.
package main

import (
	"fmt"

	"repro/internal/cli"
	"repro/internal/node"
	"repro/internal/wrbench"
)

func main() {
	env := cli.New("offsetbench").
		MachineFlag("systemp").
		StatsFlag("emit per-node telemetry as JSON instead of the table").
		PolicyFlag().
		Parse()
	m := env.Machine
	sizes := []int{8, 16, 32, 64}
	offsets := wrbench.DefaultOffsets()
	results, nodes, err := wrbench.OffsetSweep(node.Config{Machine: m, Faults: env.Spec, Trace: env.Col, Policy: env.Policy}, offsets, sizes)
	if err != nil {
		env.Fail(err)
	}
	env.WriteTrace()
	if env.Stats {
		env.EmitReports([]node.Report{env.NewReport("offset-sweep", m.Name, nodes)})
		return
	}
	fmt.Printf("work request execution time with different offsets (%s)\n", m.Name)
	fmt.Printf("%-8s", "offset")
	for _, s := range sizes {
		fmt.Printf("  buffersize=%-4d", s)
	}
	fmt.Println()
	for _, off := range offsets {
		fmt.Printf("%-8d", off)
		for _, s := range sizes {
			for _, r := range results {
				if r.Offset == off && r.SGESize == s {
					fmt.Printf("  %-15d", r.Total())
				}
			}
		}
		fmt.Println()
	}
}
