// Package nas implements reduced-scale versions of the five NAS Parallel
// Benchmarks the paper evaluates in Section 5.2 — CG, EP, IS, LU and MG —
// with their real communication skeletons (the same MPI call mix,
// message-size distribution and neighbour structure) and compute phases
// charged through the memory-access models of internal/memmodel over the
// kernels' actual allocated buffers.
//
// Each kernel verifies its numerics (residual decay, sortedness,
// statistical totals), so a run is evidence the communication substrate
// moved the right bytes, not just the right costs.
//
// The Figure 6 experiment runs every kernel twice — once with libc
// placement, once preloaded with the hugepage library (plus the BSS
// linker-script trick) — and reports the communication / other / overall
// improvement split read off each rank's MPI and compute clocks (the
// paper's mpiP profile), and the DTLB miss counters of node.Stats behind
// the Section 5.2 PAPI discussion.
package nas

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// Kernel is one NAS benchmark.
type Kernel interface {
	Name() string
	// Run executes the kernel body on one rank. Implementations must be
	// deterministic and verify their own numerics.
	Run(r *mpi.Rank) error
}

// Result is the outcome of one kernel under one configuration.
type Result struct {
	Kernel    string
	Allocator mpi.AllocatorKind
	Comm      simtime.Ticks // aggregate MPI time over all ranks
	Compute   simtime.Ticks // aggregate application time
	Total     simtime.Ticks // Comm + Compute
	Makespan  simtime.Ticks // latest rank clock
	// Nodes is every rank's end-of-run host telemetry, in rank order;
	// node.Sum(Nodes) aggregates the TLB and registration counters.
	Nodes []node.Stats
}

// maxPinnedPerRank bounds the registration cache like MVAPICH2's
// registered-memory pool: kernels whose buffer working set exceeds it
// re-register under eviction, which is where hugepages pay off during
// application runs (the "more effective memory registration" of §5.2).
const maxPinnedPerRank = 2 << 20

// RunKernel executes a kernel on a fresh world under a full MPI
// configuration, so every placement knob (allocator, lazy
// deregistration, huge ATT, policy engine, protocol limits) reaches the
// run. The paper's Section 5.2 runs are the table's "small-lazy" and
// "huge-lazy" strategies (see RunFig6).
func RunKernel(cfg mpi.Config, k Kernel) (Result, error) {
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	ak := w.Config().Allocator
	err = w.Run(func(r *mpi.Rank) error {
		r.Cache().MaxPinned = maxPinnedPerRank
		return k.Run(r)
	})
	if err != nil {
		return Result{}, fmt.Errorf("nas: %s/%s: %w", k.Name(), ak, err)
	}
	w.EndTrace()
	res := Result{
		Kernel:    k.Name(),
		Allocator: ak,
		Makespan:  w.MaxTime(),
	}
	for i := 0; i < w.Size(); i++ {
		res.Comm += w.Rank(i).CommTime()
		res.Compute += w.Rank(i).ComputeTime()
	}
	res.Total = res.Comm + res.Compute
	res.Nodes = w.NodeStats()
	return res, nil
}

// region wraps an allocated buffer with its actual page placement, for
// charging memmodel patterns.
func region(r *mpi.Rank, va vm.VA, bytes uint64) memmodel.Region {
	_, class, err := r.AS().Translate(va)
	if err != nil {
		// Unreachable for buffers returned by Malloc; keep the kernel
		// honest if it ever passes a bogus VA.
		panic(fmt.Sprintf("nas: region over unmapped VA %#x: %v", uint64(va), err))
	}
	return memmodel.Region{VA: va, Bytes: bytes, Class: class}
}

// charge applies a pattern over a region and advances the rank's clock.
// The adaptive placement policy observes every charged pattern, replaying
// it against a shadow DTLB under the counterfactual page class; Compute
// then drives the policy's feedback window.
func charge(r *mpi.Rank, p memmodel.Pattern, rg memmodel.Region) memmodel.Result {
	// Patterns only read the CPU parameters, so charge points at the
	// node's machine instead of copying them.
	res := p.Apply(&r.Verbs().Machine().CPU, r.DTLB(), rg)
	r.Node().Policy().ObservePattern(p, rg, res)
	r.Compute(res.Ticks)
	return res
}

// All returns the five kernels at their default (reduced) scales, in the
// paper's Figure 6 order.
func All() []Kernel {
	return []Kernel{DefaultCG(), DefaultEP(), DefaultIS(), DefaultLU(), DefaultMG()}
}
