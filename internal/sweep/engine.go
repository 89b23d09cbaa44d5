package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cas"
	"repro/internal/trace"
)

// Options tunes one Execute call.
type Options struct {
	// Workers sizes the goroutine pool; <= 0 takes GOMAXPROCS. The
	// worker count affects wall-clock time only, never the output
	// bytes: runs are independent and results are indexed, not
	// appended.
	Workers int
	// Cache, when non-nil, serves each (cell, seed) replicate from the
	// content-addressed store when an entry matches its key (see
	// cache.go for the key material) and stores fresh results back.
	// Cached and fresh runs produce byte-identical deterministic views:
	// stored payloads carry the wall-metric-stripped metrics, the same
	// family Bench.StripWall removes.
	Cache *cas.Store
	// Fingerprint overrides the code fingerprint mixed into cache keys
	// ("" = cas.ModuleFingerprint()). Tests use it to simulate code
	// edits without editing code.
	Fingerprint string
	// Stats, when non-nil, receives the execution summary before
	// Execute returns.
	Stats *ExecStats
}

// ExecStats summarizes how one Execute call obtained its results.
type ExecStats struct {
	// RunsTotal = RunsExecuted + RunsCached + RunsFailed.
	RunsTotal    int `json:"runs_total"`
	RunsExecuted int `json:"runs_executed"`
	RunsCached   int `json:"runs_cached"`
	RunsFailed   int `json:"runs_failed"`
	CellsTotal   int `json:"cells_total"`
	// CellsComplete counts cells whose every replicate succeeded — the
	// cells present in the Bench.
	CellsComplete int `json:"cells_complete"`
}

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
// worker pool, and aggregates the results into a Bench document. Cell
// run failures come back as RunErrors (the document still carries every
// cell that succeeded); the error return is reserved for unusable grids
// and for cancellation through Options.Ctx.
func Execute(g Grid, opt Options) (*Bench, []RunError, error) {
	ex, err := expand(g)
	if err != nil {
		return nil, nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ex.jobs) {
		workers = len(ex.jobs)
	}
	fingerprint := ""
	if opt.Cache != nil {
		fingerprint = fingerprintOr(opt.Fingerprint)
	}

	// Each worker writes only its job's dedicated slots; no two jobs
	// share an index, so the table needs no lock and the outcome no
	// ordering assumptions.
	// runFailed marks the replicates that produced no result, as opposed
	// to a result whose cache store failed.
	runErrs := make([]error, len(ex.jobs))
	runFailed := make([]bool, len(ex.jobs))
	var executed, cached atomic.Int64

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range jobs {
				j := &ex.jobs[ji]
				if opt.Cache != nil {
					if payload, ok := opt.Cache.Get(runKey(fingerprint, j)); ok {
						if m, ok := decodeMetrics(payload); ok {
							ex.cells[j.cell].Runs[j.rep] = Run{Seed: j.seed, Metrics: m}
							cached.Add(1)
							continue
						}
					}
				}
				metrics, err := j.wl.Run(RunContext{
					Machine:  j.machine,
					Strategy: j.strat,
					Spec:     j.spec,
					Seed:     j.seed,
					Ranks:    j.ranks,
				})
				if err != nil {
					runErrs[ji], runFailed[ji] = err, true
					continue
				}
				executed.Add(1)
				ex.cells[j.cell].Runs[j.rep] = Run{Seed: j.seed, Metrics: metrics}
				if opt.Cache != nil {
					payload, encErr := encodeMetrics(metrics)
					if encErr == nil {
						encErr = opt.Cache.Put(runKey(fingerprint, j), payload)
					}
					if encErr != nil {
						// A store failure must not fail the sweep; the
						// result is in hand. Surface it as a run error
						// so operators see degraded caching.
						runErrs[ji] = fmt.Errorf("result ok, cache store failed: %w", encErr)
					}
				}
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
			cellFailed[j.cell] = cellFailed[j.cell] || runFailed[ji]
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

	if opt.Stats != nil {
		*opt.Stats = ExecStats{
			RunsTotal:     len(ex.jobs),
			RunsExecuted:  int(executed.Load()),
			RunsCached:    int(cached.Load()),
			RunsFailed:    len(ex.jobs) - int(executed.Load()) - int(cached.Load()),
			CellsTotal:    len(ex.cells),
			CellsComplete: len(cells),
		}
	}

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
