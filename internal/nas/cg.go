package nas

import (
	"fmt"
	"math"

	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/vm"
)

// CG is the conjugate-gradient kernel: a distributed CG solve on a
// symmetric positive-definite banded matrix, with the NAS CG
// communication signature — a large vector exchange every iteration (the
// ring allgather moving (p-1) segments of n/p doubles) plus two scalar
// allreduces for the dot products. Class-C CG on 8 ranks moves
// hundred-of-KB messages at high frequency; the reduced scale keeps the
// segment size in the RDMA-rendezvous regime so registration behaviour
// matters, as on the real system.
type CG struct {
	N     int // global unknowns (divisible by ranks)
	Iters int
	// ScatterTouches models the indirect index-structure updates per
	// iteration (sparse bookkeeping scattered across the arena).
	ScatterTouches int64
}

// DefaultCG returns the reduced class-C-shaped instance.
func DefaultCG() *CG { return &CG{N: 786432, Iters: 10, ScatterTouches: 26_000} }

// Name implements Kernel.
func (*CG) Name() string { return "cg" }

// bands is the symmetric sparsity pattern: off-diagonals at +/- these
// offsets, value -1, diagonal 12 (strictly diagonally dominant -> SPD).
var bands = []int{1, 3, 17, 177, 2048}

const (
	cgDiag = 12.0
	cgOff  = -1.0
)

// cgHalo is the widest band: a row block [lo, lo+local) reads pfull
// only inside [lo-cgHalo, lo+local+cgHalo).
const cgHalo = 2048

// cgWindow is the part of an n-element pfull the row block [lo,
// lo+local) reads: [wlo, whi).
func cgWindow(n, lo, local int) (wlo, whi int) {
	return max(lo-cgHalo, 0), min(lo+local+cgHalo, n)
}

// cgMatvec computes q = A*pfull for the local row block [lo, lo+len(q))
// of an n-element pfull, given only its window w = pfull[wlo:whi] (see
// cgWindow). It overwrites every element of q. Interior rows, cgHalo <=
// row < n-cgHalo, read every band term; they take one sub-slice of w
// centred on the row and the band terms unrolled, summed in the same
// order as the checked loop that serves the edge rows.
func cgMatvec(q, w []float64, wlo, n, lo int) {
	ilo := min(max(cgHalo-lo, 0), len(q))
	ihi := max(min(n-cgHalo-lo, len(q)), ilo)
	cgMatvecEdge(q[:ilo], w, wlo, n, lo)
	for i := ilo; i < ihi; i++ {
		c := lo + i - wlo // row lo+i's diagonal term is w[c]
		v := w[c-cgHalo : c+cgHalo+1]
		_ = v[2*cgHalo] // one bounds check covers every term below
		s := cgDiag * v[cgHalo]
		s += cgOff * v[cgHalo-1]
		s += cgOff * v[cgHalo+1]
		s += cgOff * v[cgHalo-3]
		s += cgOff * v[cgHalo+3]
		s += cgOff * v[cgHalo-17]
		s += cgOff * v[cgHalo+17]
		s += cgOff * v[cgHalo-177]
		s += cgOff * v[cgHalo+177]
		s += cgOff * v[0]
		s += cgOff * v[2*cgHalo]
		q[i] = s
	}
	cgMatvecEdge(q[ihi:], w, wlo, n, lo+ihi)
}

// cgMatvecEdge is cgMatvec for any rows, checking each band term
// against the ends of pfull.
func cgMatvecEdge(q, w []float64, wlo, n, lo int) {
	for i := range q {
		row := lo + i
		s := cgDiag * w[row-wlo]
		for _, b := range bands {
			if j := row - b; j >= 0 {
				s += cgOff * w[j-wlo]
			}
			if j := row + b; j < n {
				s += cgOff * w[j-wlo]
			}
		}
		q[i] = s
	}
}

// Run implements Kernel.
func (k *CG) Run(r *mpi.Rank) error {
	p := r.Size()
	if k.N%p != 0 {
		return fmt.Errorf("cg: N=%d not divisible by %d ranks", k.N, p)
	}
	local := k.N / p
	lo := r.ID() * local
	segBytes := 8 * local

	// pfull is the assembled direction vector: the allgather target. Its
	// per-rank slices are what gets registered — at p different offsets,
	// the overlapping-registration pattern that pressures the pin-down
	// cache on the real system.
	pfullVA, err := r.Malloc(uint64(8 * k.N))
	if err != nil {
		return err
	}
	// The matrix block: values are generated on the fly, but its memory
	// traffic (nnz * 12 B per sweep) is charged over a real allocation so
	// placement decides TLB and prefetch behaviour.
	matBytes := uint64(local * (2*len(bands) + 1) * 12)
	matVA, err := r.Malloc(matBytes)
	if err != nil {
		return err
	}
	// The scatter arena only exists when the kernel models sparse
	// bookkeeping: at 1024 ranks an unconditional 32 MiB per rank would
	// cost 32 GiB of host memory for bytes nobody touches.
	const scatterBytes = 16 * (2 << 20)
	var scatterVA vm.VA
	if k.ScatterTouches > 0 {
		if scatterVA, err = r.Malloc(scatterBytes); err != nil {
			return err
		}
	}

	// Local CG state.
	x := make([]float64, local)
	rv := make([]float64, local) // residual
	pv := make([]float64, local) // direction
	for i := range rv {
		rv[i] = 1.0
		pv[i] = 1.0
	}
	dotVA, err := r.Malloc(64)
	if err != nil {
		return err
	}

	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	allreduceScalar := func(v float64) (float64, error) {
		if err := r.WriteF64(dotVA, []float64{v}); err != nil {
			return 0, err
		}
		if err := r.AllreduceF64(dotVA, 1, mpi.Sum); err != nil {
			return 0, err
		}
		var out [1]float64
		if err := r.ReadF64(dotVA, out[:]); err != nil {
			return 0, err
		}
		return out[0], nil
	}

	rho, err := allreduceScalar(dot(rv, rv))
	if err != nil {
		return err
	}
	rho0 := rho

	// The band window of pfull is the same every iteration, so one
	// buffer holds it throughout; q = A*p reuses one buffer the same way.
	wlo, whi := cgWindow(k.N, lo, local)
	w := make([]float64, whi-wlo)
	q := make([]float64, local)

	for it := 0; it < k.Iters; it++ {
		// Publish the local direction segment into pfull, then ring-
		// allgather all other segments (p-1 rendezvous messages).
		if err := r.WriteF64(pfullVA+vm.VA(lo*8), pv); err != nil {
			return err
		}
		if err := ringAllgatherCG(r, pfullVA, segBytes, it); err != nil {
			return err
		}
		// Only the band window of pfull feeds the matvec; reading it
		// costs no virtual time, so the window changes host work only.
		if err := r.ReadF64(pfullVA+vm.VA(8*wlo), w); err != nil {
			return err
		}
		// Matvec: stream the matrix block, gather from the full vector.
		charge(r, memmodel.SeqScan{Passes: 1}, region(r, matVA, matBytes))
		charge(r, memmodel.Random{Count: int64(local * len(bands) / 16), Seed: uint64(it + 1)},
			region(r, pfullVA, uint64(8*k.N)))
		cgMatvec(q, w, wlo, k.N, lo)

		pq, err := allreduceScalar(dot(pv, q))
		if err != nil {
			return err
		}
		if pq == 0 {
			return fmt.Errorf("cg: breakdown at iteration %d", it)
		}
		alpha := rho / pq
		for i := range x {
			x[i] += alpha * pv[i]
			rv[i] -= alpha * q[i]
		}
		rhoNew, err := allreduceScalar(dot(rv, rv))
		if err != nil {
			return err
		}
		beta := rhoNew / rho
		rho = rhoNew
		for i := range pv {
			pv[i] = rv[i] + beta*pv[i]
		}
		// Vector updates stream x, r, p, q once each.
		charge(r, memmodel.SeqScan{Passes: 4}, region(r, pfullVA+vm.VA(lo*8), uint64(segBytes)))
		// Sparse index bookkeeping hops across scattered structures.
		if k.ScatterTouches > 0 {
			charge(r, memmodel.ScatteredTables{
				NumTables:  28,
				TableBytes: 2048,
				Count:      k.ScatterTouches,
			}, region(r, scatterVA, scatterBytes))
		}
	}

	// Verification: with condition number <= 11 (Gershgorin: eigenvalues
	// in [2,22]) CG contracts the squared residual by at least ~0.4 per
	// iteration; require that rate.
	tol := math.Pow(0.4, float64(k.Iters))
	if !(rho < tol*rho0) || math.IsNaN(rho) {
		return fmt.Errorf("cg: VERIFICATION FAILED: residual^2 %g -> %g (want < %g x)", rho0, rho, tol)
	}
	return nil
}

// ringAllgatherCG circulates pfull segments around the ring: after p-1
// steps every rank holds all segments. Each step forwards the segment
// received in the previous step — so the registered slice moves through
// the buffer, touching p-1 distinct (address, length) regions.
func ringAllgatherCG(r *mpi.Rank, pfullVA vm.VA, segBytes int, it int) error {
	p := r.Size()
	right := (r.ID() + 1) % p
	left := (r.ID() - 1 + p) % p
	tag := 100 + it
	sendSeg := r.ID()
	for step := 0; step < p-1; step++ {
		recvSeg := (sendSeg - 1 + p) % p
		if _, err := r.Sendrecv(
			right, tag, pfullVA+vm.VA(sendSeg*segBytes), segBytes,
			left, tag, pfullVA+vm.VA(recvSeg*segBytes), segBytes); err != nil {
			return fmt.Errorf("cg: allgather step %d: %w", step, err)
		}
		sendSeg = recvSeg
	}
	return nil
}
