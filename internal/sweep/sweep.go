// Package sweep orchestrates seed-replicated experiment grids over the
// simulated InfiniBand stack: the paper's evaluation matrix — workloads
// (IMB, NAS kernels, work-request sweeps, allocator replays) × machines
// (Opteron/Xeon/System p) × placement strategies (page size, lazy
// deregistration, ATT patch) × fault specs — expanded into independent
// runs replicated over N seeds, executed by a goroutine worker pool,
// and aggregated into per-configuration statistics, paired strategy
// comparisons, and a canonical versioned BENCH JSON document.
//
// Determinism is the design center. Each run is a pure function of its
// cell configuration and seed (runs share no mutable state: every run
// builds fresh nodes/worlds), so executing the grid under any worker
// count or interleaving produces the same per-run results; aggregation
// fills a pre-indexed result table and renders it in a canonical sort
// order, so the final BENCH bytes are identical at GOMAXPROCS=1 and
// GOMAXPROCS=32. The engine never consults a wall clock — every
// duration in the output is virtual (simtime.Ticks).
package sweep

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// Strategy is one named placement strategy of the mpi table.
type Strategy = mpi.Strategy

// StrategyByName resolves a named strategy (mpi.StrategyByName).
func StrategyByName(name string) (Strategy, bool) { return mpi.StrategyByName(name) }

// agnosticStrategy is the strategy name recorded for cells of workloads
// that do not consume a placement strategy (the raw work-request
// microbenchmarks): their cells collapse to one per (machine, faults).
const agnosticStrategy = "-"

// Grid is a declarative experiment grid: the cross product of its
// dimensions, replicated over Seeds. It is both the sweeprun input
// format (a JSON file or a built-in name) and the configuration echoed
// into the BENCH document.
type Grid struct {
	// Name names the grid; the canonical output file is BENCH_<name>.json.
	Name string `json:"name"`
	// Machines lists machine names ("opteron", "xeon", "systemp").
	Machines []string `json:"machines"`
	// Workloads lists workload names (see Workloads()).
	Workloads []string `json:"workloads"`
	// Strategies lists placement strategy names (see mpi.Strategies()).
	Strategies []string `json:"strategies"`
	// Faults lists -faults spec strings; "" is a clean run. An empty
	// list means one clean configuration.
	Faults []string `json:"faults,omitempty"`
	// Seeds replicates every cell; each seed perturbs the fault
	// schedule (and seed-consuming workloads) deterministically. Must
	// be strictly increasing.
	Seeds []uint64 `json:"seeds"`
	// Ranks is the NAS-kernel rank count (default 4).
	Ranks int `json:"ranks,omitempty"`
}

// Cell identifies one grid cell: a (workload, machine, strategy,
// faults) configuration replicated across the grid's seeds.
type Cell struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Strategy string `json:"strategy"`
	Faults   string `json:"faults,omitempty"`
	// Seeds is the strictly increasing replicate list.
	Seeds []uint64 `json:"seeds"`
	// Runs holds one record per seed, aligned with Seeds.
	Runs []Run `json:"runs"`
	// Stats aggregates each metric across the seed replicates.
	Stats map[string]Dist `json:"stats"`
}

// Key renders the cell's identity as a path ("nas/cg/opteron/huge-lazy"
// plus the fault spec when armed) — the name gate failures and run
// errors report.
func (c *Cell) Key() string {
	k := c.Workload + "/" + c.Machine + "/" + c.Strategy
	if c.Faults != "" {
		k += "/" + c.Faults
	}
	return k
}

// cellLess is the canonical cell order of a BENCH document.
func cellLess(a, b *Cell) bool {
	if a.Workload != b.Workload {
		return a.Workload < b.Workload
	}
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	if a.Strategy != b.Strategy {
		return a.Strategy < b.Strategy
	}
	return a.Faults < b.Faults
}

// Run is one executed (cell, seed) replicate.
type Run struct {
	Seed uint64 `json:"seed"`
	// Metrics are the workload's measurements; all durations are
	// virtual ticks. encoding/json marshals the keys sorted, which
	// keeps the document canonical.
	Metrics map[string]float64 `json:"metrics"`
}

// job is one unit of worker-pool work: a pointer into the expansion.
type job struct {
	cell    int // index into cells
	rep     int // index into Seeds
	seed    uint64
	machine *machine.Machine
	strat   Strategy
	spec    *faults.Spec // already seed-mixed; nil = clean
	wl      *Workload
	ranks   int
}

// expansion is a validated, fully resolved grid.
type expansion struct {
	grid  Grid
	cells []Cell
	jobs  []job
}

// mixSeed folds a replicate seed into a fault-spec seed with a
// splitmix64 step, so replicates observe decorrelated but reproducible
// fault schedules.
func mixSeed(base, seed uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(seed+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// expand validates the grid and produces the deterministic cell and job
// tables. Cells come out in canonical sort order; jobs in cell-major,
// seed-minor order (the job index is the result slot, so workers of any
// interleaving fill the same table).
func expand(g Grid) (*expansion, error) {
	if g.Name == "" {
		return nil, fmt.Errorf("sweep: grid needs a name")
	}
	if len(g.Machines) == 0 || len(g.Workloads) == 0 || len(g.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: grid %q needs machines, workloads and seeds", g.Name)
	}
	if len(g.Strategies) == 0 {
		return nil, fmt.Errorf("sweep: grid %q needs strategies (all workloads strategy-agnostic? list one anyway)", g.Name)
	}
	for i := 1; i < len(g.Seeds); i++ {
		if g.Seeds[i] <= g.Seeds[i-1] {
			return nil, fmt.Errorf("sweep: grid %q seeds must be strictly increasing (%d after %d)", g.Name, g.Seeds[i], g.Seeds[i-1])
		}
	}
	if g.Ranks == 0 {
		g.Ranks = 4
	}
	if len(g.Faults) == 0 {
		g.Faults = []string{""}
	}

	machines := make([]*machine.Machine, len(g.Machines))
	for i, name := range g.Machines {
		if machines[i] = machine.ByName(name); machines[i] == nil {
			return nil, fmt.Errorf("sweep: unknown machine %q", name)
		}
	}
	wls := make([]*Workload, len(g.Workloads))
	for i, name := range g.Workloads {
		w := WorkloadByName(name)
		if w == nil {
			return nil, fmt.Errorf("sweep: unknown workload %q", name)
		}
		wls[i] = w
	}
	strats := make([]Strategy, len(g.Strategies))
	for i, name := range g.Strategies {
		s, ok := mpi.StrategyByName(name)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown strategy %q", name)
		}
		strats[i] = s
	}
	specs := make([]*faults.Spec, len(g.Faults))
	for i, fs := range g.Faults {
		spec, err := faults.ParseSpec(fs)
		if err != nil {
			return nil, fmt.Errorf("sweep: grid %q: %w", g.Name, err)
		}
		specs[i] = spec
	}

	ex := &expansion{grid: g}
	for wi, wl := range wls {
		cellStrats := strats
		if !wl.Strategied {
			cellStrats = []Strategy{{Name: agnosticStrategy}}
		}
		for mi := range machines {
			for _, st := range cellStrats {
				for fi, spec := range specs {
					cell := Cell{
						Workload: wl.Name,
						Machine:  g.Machines[mi],
						Strategy: st.Name,
						Faults:   g.Faults[fi],
						Seeds:    append([]uint64(nil), g.Seeds...),
						Runs:     make([]Run, len(g.Seeds)),
					}
					ci := len(ex.cells)
					ex.cells = append(ex.cells, cell)
					for ri, seed := range g.Seeds {
						var runSpec *faults.Spec
						if spec != nil {
							mixed := *spec
							mixed.Seed = mixSeed(spec.Seed, seed)
							runSpec = &mixed
						}
						ex.jobs = append(ex.jobs, job{
							cell: ci, rep: ri, seed: seed,
							machine: machines[mi], strat: st,
							spec: runSpec, wl: wls[wi], ranks: g.Ranks,
						})
					}
				}
			}
		}
	}

	// Two workloads could collide only if the grid lists a duplicate
	// dimension value; reject rather than silently merging.
	seen := make(map[string]bool, len(ex.cells))
	for i := range ex.cells {
		k := ex.cells[i].Key()
		if seen[k] {
			return nil, fmt.Errorf("sweep: grid %q expands duplicate cell %s", g.Name, k)
		}
		seen[k] = true
	}
	return ex, nil
}

// sortCells orders cells canonically and returns the permutation's
// effect on nothing else — jobs keep indexing the original slice, so
// this runs only after all results are recorded.
func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool { return cellLess(&cells[i], &cells[j]) })
}
