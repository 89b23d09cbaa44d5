package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// BuiltinGrids returns the named grids sweeprun ships with.
//
// "smoke" is the CI gate grid: small and fast, but wide enough to cover
// an MPI workload, an allocator replay and a strategy-agnostic
// microbenchmark, with a fault spec armed so seed replicates genuinely
// differ.
//
// "seed" is the committed-baseline grid behind BENCH_seed.json and the
// EXPERIMENTS.md E11 table: every NAS kernel plus IMB SendRecv and the
// Abinit replay on the Opteron, small-lazy vs huge-lazy — the paper's
// Figure 5/6 comparison as seed-replicated statistics.
//
// "scale" is the scheduler-throughput grid behind BENCH_scale.json:
// 1024-rank IMB SendRecv and NAS CG, whose tick metrics stay
// byte-identical under any GOMAXPROCS/worker count (after
// Bench.StripWall removes the host-dependent ticks_per_wallsec family)
// and whose wall throughput the CI scale job gates against the
// committed baseline with a generous tolerance.
//
// "policy" is the placement-policy grid behind BENCH_policy.json: the
// seed grid's workloads under all four fixed Figure 5 strategies plus
// the threshold and adaptive policy engines, so the CI policy job can
// gate "adaptive beats-or-ties every static strategy cell-for-cell"
// (sweeprun -require-best adaptive).
//
// "modern" is the modern-workload grid behind BENCH_modern.json: MoE
// dispatch/combine, tiered KV-cache decode and the 2-D halo exchange
// under the four fixed strategies plus adaptive — the pack where the
// winning placement strategy flips per workload (hugepages win MoE's
// bulk dispatch, lose KV decode where the 2 MiB promotion unit makes
// tier migration uneconomical).
func BuiltinGrids() []Grid {
	return []Grid{
		{
			Name:       "smoke",
			Machines:   []string{"opteron"},
			Workloads:  []string{"alloc/abinit", "imb/pingpong", "wr/sge"},
			Strategies: []string{"small-lazy", "huge-lazy"},
			Faults:     []string{"seed=3,attevict=800,wr=200"},
			Seeds:      []uint64{1, 2, 3},
		},
		{
			Name:     "seed",
			Machines: []string{"opteron"},
			Workloads: []string{
				"alloc/abinit", "imb/sendrecv",
				"nas/cg", "nas/ep", "nas/is", "nas/lu", "nas/mg",
			},
			Strategies: []string{"small-lazy", "huge-lazy"},
			Faults:     []string{"seed=5,attevict=600,wr=300"},
			Seeds:      []uint64{1, 2, 3},
			Ranks:      4,
		},
		{
			Name:       "scale",
			Machines:   []string{"opteron"},
			Workloads:  []string{"scale/sendrecv", "scale/cg"},
			Strategies: []string{"huge-lazy"},
			Seeds:      []uint64{1},
			Ranks:      1024,
		},
		{
			Name:     "policy",
			Machines: []string{"opteron"},
			Workloads: []string{
				"alloc/abinit", "imb/sendrecv",
				"nas/cg", "nas/ep", "nas/is", "nas/lu", "nas/mg",
			},
			Strategies: []string{"small", "huge", "small-lazy", "huge-lazy", "threshold", "adaptive"},
			Faults:     []string{"seed=5,attevict=600,wr=300"},
			Seeds:      []uint64{1, 2, 3},
			Ranks:      4,
		},
		{
			Name:       "modern",
			Machines:   []string{"opteron"},
			Workloads:  []string{"moe/dispatch", "kv/decode", "halo/exchange2d"},
			Strategies: []string{"small", "huge", "small-lazy", "huge-lazy", "adaptive"},
			Seeds:      []uint64{1, 2, 3},
			Ranks:      4,
		},
	}
}

// Counts validates and expands the grid without running anything, and
// reports its size: distinct cells (strategy-agnostic workloads
// collapse to one cell per machine × faults) and total runs (cells ×
// seeds) — what sweeprun -list prints so users can estimate cost before
// running.
func (g Grid) Counts() (cells, runs int, err error) {
	ex, err := expand(g)
	if err != nil {
		return 0, 0, err
	}
	return len(ex.cells), len(ex.jobs), nil
}

// GridByName resolves a built-in grid.
func GridByName(name string) (Grid, bool) {
	for _, g := range BuiltinGrids() {
		if g.Name == name {
			return g, true
		}
	}
	return Grid{}, false
}

// LoadGrid reads a grid spec: a built-in name, or "@path" / a path to a
// JSON file holding one Grid object (strictly decoded).
func LoadGrid(arg string) (Grid, error) {
	if g, ok := GridByName(arg); ok {
		return g, nil
	}
	path := strings.TrimPrefix(arg, "@")
	if path == arg && !strings.ContainsAny(arg, "./") {
		names := make([]string, 0, 2)
		for _, g := range BuiltinGrids() {
			names = append(names, g.Name)
		}
		return Grid{}, fmt.Errorf("sweep: unknown grid %q (built-ins: %s; or @file.json)", arg, strings.Join(names, ", "))
	}
	f, err := os.Open(path)
	if err != nil {
		return Grid{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: %s is not a valid grid spec: %w", path, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Grid{}, fmt.Errorf("sweep: %s has trailing data after the grid spec", path)
	}
	return g, nil
}

// FormatComparisons renders the paired-comparison table: one row per
// (workload, machine, pair), with the improvement of every common
// metric. This is the E11 speedup table.
func FormatComparisons(b *Bench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "paired strategy comparisons, %q grid (positive %% = test strategy better; mean over %d seed(s))\n", b.Name, len(b.Grid.Seeds))
	fmt.Fprintf(&sb, "%-14s %-9s %-26s %9s  %s\n", "workload", "machine", "base -> test", "primary", "per-metric improvement %")
	for _, c := range b.Comparisons {
		var parts []string
		for _, name := range sortedKeys(c.ImprovementPct) {
			if name == VirtTicks {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s %+0.1f", name, c.ImprovementPct[name]))
		}
		fmt.Fprintf(&sb, "%-14s %-9s %-26s %+8.1f%%  %s\n",
			c.Workload, c.Machine, c.Base+" -> "+c.Test,
			c.PrimaryImprovementPct, strings.Join(parts, ", "))
	}
	return sb.String()
}

// FormatCells renders the per-cell statistics of the primary metric:
// mean +- ci95 over the seed replicates, with min/max spread.
func FormatCells(b *Bench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-cell primary-metric statistics, %q grid\n", b.Name)
	fmt.Fprintf(&sb, "%-52s %-14s %14s %10s %14s %14s\n", "cell", "metric", "mean", "ci95", "min", "max")
	for i := range b.Cells {
		c := &b.Cells[i]
		wl := WorkloadByName(c.Workload)
		if wl == nil {
			continue
		}
		d, ok := c.Stats[wl.Primary]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "%-52s %-14s %14.1f %10.1f %14.1f %14.1f\n",
			c.Key(), wl.Primary, d.Mean, d.CI95, d.Min, d.Max)
	}
	return sb.String()
}
