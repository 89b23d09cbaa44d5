package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/trace"
)

// RunError is one failed (cell, seed) replicate. The engine never
// aborts sibling runs on a failure: every run executes, every error is
// reported, and sweeprun turns any of them into a non-zero exit naming
// the cell.
type RunError struct {
	Cell string
	Seed uint64
	Err  error
}

func (e RunError) Error() string {
	return fmt.Sprintf("cell %s seed=%d: %v", e.Cell, e.Seed, e.Err)
}

func (e RunError) Unwrap() error { return e.Err }

// Execute expands the grid, runs every (cell, seed) replicate on a
// pool of workers goroutines (<= 0 takes GOMAXPROCS), and aggregates
// the results into a Bench document. The worker count affects
// wall-clock time only, never the output bytes: runs are independent
// and results are indexed, not appended. Cell run failures come back
// as RunErrors (the document still carries every cell that succeeded);
// the error return is reserved for unusable grids.
func Execute(g Grid, workers int) (*Bench, []RunError, error) {
	ex, err := expand(g)
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ex.jobs) {
		workers = len(ex.jobs)
	}

	// Each worker writes only its job's dedicated slots; no two jobs
	// share an index, so the table needs no lock and the outcome no
	// ordering assumptions.
	runErrs := make([]error, len(ex.jobs))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range jobs {
				j := &ex.jobs[ji]
				metrics, err := j.wl.Run(RunContext{
					Machine:  j.machine,
					Strategy: j.strat,
					Spec:     j.spec,
					Seed:     j.seed,
					Ranks:    j.ranks,
				})
				if err != nil {
					runErrs[ji] = err
					continue
				}
				ex.cells[j.cell].Runs[j.rep] = Run{Seed: j.seed, Metrics: metrics}
			}
		}()
	}
	for ji := range ex.jobs {
		jobs <- ji
	}
	close(jobs)
	wg.Wait()

	var errs []RunError
	cellFailed := make([]bool, len(ex.cells))
	for ji, err := range runErrs {
		if err != nil {
			j := ex.jobs[ji]
			errs = append(errs, RunError{Cell: ex.cells[j.cell].Key(), Seed: j.seed, Err: err})
			cellFailed[j.cell] = true
		}
	}
	sortRunErrors(errs)

	// Drop cells with failed replicates from the document (their stats
	// would silently mix successful seeds), keep every complete cell.
	cells := make([]Cell, 0, len(ex.cells))
	for ci := range ex.cells {
		if cellFailed[ci] {
			continue
		}
		c := ex.cells[ci]
		c.aggregate()
		cells = append(cells, c)
	}
	sortCells(cells)

	b := &Bench{
		SchemaVersion: SchemaVersion,
		Name:          g.Name,
		Grid:          ex.grid,
		Cells:         cells,
	}
	b.Comparisons = comparisons(b)
	return b, errs, nil
}

// SlowestCell returns the key of the cell with the largest mean
// VirtTicks — a deterministic choice, since it reads the aggregated
// virtual-time metric rather than any wall clock. Ties break toward the
// canonically first cell. Empty documents return "".
func SlowestCell(b *Bench) string {
	best, bestTicks := "", -1.0
	for i := range b.Cells {
		if d, ok := b.Cells[i].Stats[VirtTicks]; ok && d.Mean > bestTicks {
			best, bestTicks = b.Cells[i].Key(), d.Mean
		}
	}
	return best
}

// TraceCell re-runs one cell's first seed with a trace collector armed
// and returns the collector — the "capture the slowest cell" path of
// sweeprun -trace. The re-run is bit-identical to the grid run (same
// spec mixing, same context), just recorded.
func TraceCell(g Grid, cellKey string) (*trace.Collector, error) {
	ex, err := expand(g)
	if err != nil {
		return nil, err
	}
	for _, j := range ex.jobs {
		if ex.cells[j.cell].Key() != cellKey || j.rep != 0 {
			continue
		}
		col := trace.NewCollector()
		col.SetMeta("tool", "sweeprun")
		col.SetMeta("cell", cellKey)
		col.SetMeta("machine", j.machine.Name)
		col.SetMeta("faults", j.spec.String())
		_, err := j.wl.Run(RunContext{
			Machine:     j.machine,
			Strategy:    j.strat,
			Spec:        j.spec,
			Seed:        j.seed,
			Ranks:       j.ranks,
			Trace:       col,
			TracePrefix: "",
		})
		if err != nil {
			return nil, fmt.Errorf("sweep: tracing cell %s: %w", cellKey, err)
		}
		return col, nil
	}
	return nil, fmt.Errorf("sweep: no cell %s in grid %q", cellKey, g.Name)
}

// sortRunErrors orders run errors for stable reporting.
func sortRunErrors(errs []RunError) {
	sort.Slice(errs, func(i, j int) bool {
		if errs[i].Cell != errs[j].Cell {
			return errs[i].Cell < errs[j].Cell
		}
		return errs[i].Seed < errs[j].Seed
	})
}
