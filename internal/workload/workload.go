// Package workload generates the deterministic allocation traces used by
// the allocator benchmarks (E7/E8).
//
// AbinitTrace models the behaviour the paper observed when instrumenting
// Abinit: the application "raised a thrashing behaviour into the libc
// memory allocator" — bursts of allocate/free pairs of the *same* sizes
// in a short time frame (work arrays created and destroyed per SCF
// iteration), over a base of long-lived arrays. This is the pattern where
// immediate coalescing + re-splitting does maximal useless work and where
// the paper measured "allocation benefits of up to 10 times".
package workload

import (
	"math/rand"

	"repro/internal/alloc"
)

// AbinitParams sizes the synthetic Abinit trace.
type AbinitParams struct {
	Seed       int64
	Iterations int // SCF-like outer iterations
	WorkArrays int // arrays allocated+freed per iteration
	BaseArrays int // long-lived arrays allocated up front
	// MinSize/MaxSize bound the work-array sizes (bytes). Abinit work
	// arrays are wavefunction-sized: well above the 32 KiB threshold.
	MinSize, MaxSize uint64
}

// DefaultAbinitParams matches a mid-size Abinit run scaled to simulator
// speed.
func DefaultAbinitParams() AbinitParams {
	return AbinitParams{
		Seed:       1,
		Iterations: 60,
		WorkArrays: 24,
		BaseArrays: 12,
		MinSize:    48 << 10,
		MaxSize:    1536 << 10,
	}
}

// AbinitTrace builds the trace. Slot usage: slots [0,BaseArrays) hold the
// long-lived arrays; slots [BaseArrays, BaseArrays+WorkArrays) cycle every
// iteration with a fixed per-slot size — the same-size alloc/free pattern
// the paper's no-coalescing design point targets.
func AbinitTrace(p AbinitParams) ([]alloc.TraceOp, int) {
	rng := rand.New(rand.NewSource(p.Seed))
	slots := p.BaseArrays + p.WorkArrays
	var ops []alloc.TraceOp

	size := func() uint64 {
		s := p.MinSize + uint64(rng.Int63n(int64(p.MaxSize-p.MinSize)))
		return s &^ 1023 // Fortran arrays: kilobyte-granular
	}

	for i := 0; i < p.BaseArrays; i++ {
		ops = append(ops, alloc.TraceOp{Alloc: true, Size: size(), Slot: i})
	}
	// Per-slot work sizes are fixed across iterations (same routine, same
	// array shapes every SCF step).
	work := make([]uint64, p.WorkArrays)
	for i := range work {
		work[i] = size()
	}
	for it := 0; it < p.Iterations; it++ {
		for i := 0; i < p.WorkArrays; i++ {
			ops = append(ops, alloc.TraceOp{Alloc: true, Size: work[i], Slot: p.BaseArrays + i})
		}
		// Free in reverse order (stack-like lifetimes, as in Fortran).
		for i := p.WorkArrays - 1; i >= 0; i-- {
			ops = append(ops, alloc.TraceOp{Alloc: false, Slot: p.BaseArrays + i})
		}
	}
	for i := p.BaseArrays - 1; i >= 0; i-- {
		ops = append(ops, alloc.TraceOp{Alloc: false, Slot: i})
	}
	return ops, slots
}
