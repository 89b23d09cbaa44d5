package nas

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/vm"
)

// LU is the pipelined wavefront kernel (SSOR): sweeps over k-planes of a
// 3D domain where each rank waits for its upstream neighbour's boundary
// plane, relaxes its own block, and forwards the plane downstream — the
// NAS LU signature of many medium-sized, latency-sensitive messages in a
// strict pipeline.
//
// LU is the Section 5.2 exception: its blocked access pattern keeps the
// per-plane working set inside both TLB entry files, so hugepages do
// *not* blow its miss count up ("except for LU"); meanwhile its per-plane
// slice registrations at ever-changing offsets keep the pin-down cache
// under pressure, which is where its >8 % communication win comes from.
type LU struct {
	Planes     int // k-planes per sweep
	PlaneBytes int // boundary plane size
	Sweeps     int // forward+backward sweep pairs
	// HotBytes is the per-plane relaxation working set (fits both TLBs).
	HotBytes uint64
}

// DefaultLU returns the reduced class-C-shaped instance.
func DefaultLU() *LU {
	return &LU{Planes: 40, PlaneBytes: 32 << 10, Sweeps: 3, HotBytes: 96 << 20}
}

// Name implements Kernel.
func (*LU) Name() string { return "lu" }

// luPlaneValue is the deterministic content of plane k at pipeline stage
// s from rank id — lets every receiver verify the full relay chain.
func luPlaneValue(k, sweep, stage int) byte {
	return byte(37*k + 11*sweep + 5*stage + 1)
}

// Run implements Kernel.
func (k *LU) Run(r *mpi.Rank) error {
	p := r.Size()
	// The plane slab: Planes boundary planes at varying offsets — each
	// plane send registers a different slice.
	slabBytes := uint64(k.Planes * k.PlaneBytes)
	slabVA, err := r.Malloc(slabBytes)
	if err != nil {
		return err
	}
	recvVA, err := r.Malloc(slabBytes)
	if err != nil {
		return err
	}
	// The relaxation working set (blocked: dense small region).
	hotVA, err := r.Malloc(k.HotBytes)
	if err != nil {
		return err
	}

	// fill stages each plane's content before its send; one buffer
	// serves every plane.
	fill := make([]byte, k.PlaneBytes)
	for sweep := 0; sweep < k.Sweeps; sweep++ {
		// Forward wavefront: rank 0 -> p-1, plane by plane.
		for plane := 0; plane < k.Planes; plane++ {
			off := vm.VA(plane * k.PlaneBytes)
			tag := 2000 + sweep*256 + plane
			if r.ID() > 0 {
				if _, err := r.Recv(r.ID()-1, tag, recvVA+off, k.PlaneBytes); err != nil {
					return fmt.Errorf("lu: sweep %d plane %d recv: %w", sweep, plane, err)
				}
				// Verify the upstream plane content.
				probe := make([]byte, 8)
				if err := r.ReadBytes(recvVA+off, probe); err != nil {
					return err
				}
				want := luPlaneValue(plane, sweep, r.ID()-1)
				for _, b := range probe {
					if b != want {
						return fmt.Errorf("lu: VERIFICATION FAILED: sweep %d plane %d got %d want %d",
							sweep, plane, b, want)
					}
				}
			}
			// Relax this plane: blocked dense work over the hot region
			// plus a strided touch of the plane slice.
			charge(r, memmodel.Random{Count: 2000, Seed: uint64(sweep*1000 + plane)},
				region(r, hotVA, k.HotBytes))
			charge(r, memmodel.Strided{Stride: 256, Passes: 1},
				region(r, slabVA+off, uint64(k.PlaneBytes)))

			if r.ID() < p-1 {
				v := luPlaneValue(plane, sweep, r.ID())
				for i := range fill {
					fill[i] = v
				}
				if err := r.WriteBytes(slabVA+off, fill); err != nil {
					return err
				}
				if err := r.Send(r.ID()+1, tag, slabVA+off, k.PlaneBytes); err != nil {
					return fmt.Errorf("lu: sweep %d plane %d send: %w", sweep, plane, err)
				}
			}
		}
		// Backward wavefront: p-1 -> 0 (the SSOR lower/upper pair).
		for plane := k.Planes - 1; plane >= 0; plane-- {
			off := vm.VA(plane * k.PlaneBytes)
			tag := 3000 + sweep*256 + plane
			if r.ID() < p-1 {
				if _, err := r.Recv(r.ID()+1, tag, recvVA+off, k.PlaneBytes); err != nil {
					return fmt.Errorf("lu: back sweep %d plane %d recv: %w", sweep, plane, err)
				}
			}
			charge(r, memmodel.Random{Count: 2000, Seed: uint64(sweep*2000 + plane)},
				region(r, hotVA, k.HotBytes))
			if r.ID() > 0 {
				if err := r.Send(r.ID()-1, tag, slabVA+off, k.PlaneBytes); err != nil {
					return fmt.Errorf("lu: back sweep %d plane %d send: %w", sweep, plane, err)
				}
			}
		}
		// Residual norm at the end of each sweep pair.
		normVA, err := r.Malloc(64)
		if err != nil {
			return err
		}
		if err := r.WriteF64(normVA, []float64{1.0 / float64(sweep+1)}); err != nil {
			return err
		}
		if err := r.AllreduceF64(normVA, 1, mpi.Sum); err != nil {
			return err
		}
		var got [1]float64
		if err := r.ReadF64(normVA, got[:]); err != nil {
			return err
		}
		want := float64(p) / float64(sweep+1)
		if diff := got[0] - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("lu: VERIFICATION FAILED: norm %g want %g", got[0], want)
		}
		if err := r.Free(normVA); err != nil {
			return err
		}
	}
	return nil
}
