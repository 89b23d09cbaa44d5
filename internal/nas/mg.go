package nas

import (
	"fmt"
	"math"

	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/vm"
)

// MG is the multigrid kernel: V-cycles over a grid hierarchy with
// nearest-neighbour halo exchanges at every level — message sizes spread
// from rendezvous-sized on the fine grid down to eager-sized on the
// coarse grids, which is why MG's communication benefits least from the
// registration savings (most of its messages are small, and its buffer
// set is static and compact): the paper's "except for MG" on the >8 %
// communication claim.
type MG struct {
	Cycles int
	// FineBytes is the fine-grid halo size; each coarser level quarters it.
	FineBytes int
	Levels    int
	// GridBytes is the fine-grid local block (streamed each smoothing).
	GridBytes uint64
	// ScatterTouches models per-cycle hops over the scattered per-level
	// coefficient tables.
	ScatterTouches int64
}

// DefaultMG returns the reduced class-B/C-shaped instance.
func DefaultMG() *MG {
	return &MG{Cycles: 8, FineBytes: 128 << 10, Levels: 4, GridBytes: 8 << 20, ScatterTouches: 8000}
}

// Name implements Kernel.
func (*MG) Name() string { return "mg" }

// Run implements Kernel.
func (k *MG) Run(r *mpi.Rank) error {
	p := r.Size()
	right := (r.ID() + 1) % p
	left := (r.ID() - 1 + p) % p

	// One halo buffer pair per level (static, as in the Fortran source).
	sendVAs := make([]vm.VA, k.Levels)
	recvVAs := make([]vm.VA, k.Levels)
	haloBytes := make([]int, k.Levels)
	gridVAs := make([]vm.VA, k.Levels)
	gridBytes := make([]uint64, k.Levels)
	hb := k.FineBytes
	gb := k.GridBytes
	maxHalo := 0
	for l := 0; l < k.Levels; l++ {
		haloBytes[l] = hb
		maxHalo = max(maxHalo, hb)
		var err error
		if sendVAs[l], err = r.Malloc(uint64(hb)); err != nil {
			return err
		}
		if recvVAs[l], err = r.Malloc(uint64(hb)); err != nil {
			return err
		}
		gridBytes[l] = gb
		if gridVAs[l], err = r.Malloc(gb); err != nil {
			return err
		}
		hb /= 4
		if hb < 2048 {
			hb = 2048
		}
		gb /= 8
		if gb < 64<<10 {
			gb = 64 << 10
		}
	}
	resVA, err := r.Malloc(64)
	if err != nil {
		return err
	}
	const coefTables = 20
	coefBytes := uint64(coefTables) * (2 << 20)
	coefVA, err := r.Malloc(coefBytes)
	if err != nil {
		return err
	}

	// fill stages each level's halo before its exchange; one buffer
	// serves every level.
	fill := make([]byte, maxHalo)
	residual := 1.0
	for c := 0; c < k.Cycles; c++ {
		// Down-sweep: smooth + restrict, exchanging halos at each level.
		for l := 0; l < k.Levels; l++ {
			// Smoothing: stream the level grid (prefetch-sensitive) and a
			// strided stencil pass.
			charge(r, memmodel.SeqScan{Passes: 2}, region(r, gridVAs[l], gridBytes[l]))
			charge(r, memmodel.Strided{Stride: 1024, Passes: 1}, region(r, gridVAs[l], gridBytes[l]))
			// Halo exchange with both neighbours, content-checked.
			v := byte(13*c + 7*l + 3*r.ID() + 1)
			f := fill[:haloBytes[l]]
			for i := range f {
				f[i] = v
			}
			if err := r.WriteBytes(sendVAs[l], f); err != nil {
				return err
			}
			tag := 4000 + c*64 + l
			if _, err := r.Sendrecv(right, tag, sendVAs[l], haloBytes[l],
				left, tag, recvVAs[l], haloBytes[l]); err != nil {
				return fmt.Errorf("mg: cycle %d level %d down: %w", c, l, err)
			}
			probe := make([]byte, 8)
			if err := r.ReadBytes(recvVAs[l], probe); err != nil {
				return err
			}
			want := byte(13*c + 7*l + 3*left + 1)
			for _, b := range probe {
				if b != want {
					return fmt.Errorf("mg: VERIFICATION FAILED: cycle %d level %d halo got %d want %d",
						c, l, b, want)
				}
			}
		}
		// Up-sweep: prolongate + smooth.
		for l := k.Levels - 1; l >= 0; l-- {
			charge(r, memmodel.SeqScan{Passes: 1}, region(r, gridVAs[l], gridBytes[l]))
			tag := 5000 + c*64 + l
			if _, err := r.Sendrecv(left, tag, sendVAs[l], haloBytes[l],
				right, tag, recvVAs[l], haloBytes[l]); err != nil {
				return fmt.Errorf("mg: cycle %d level %d up: %w", c, l, err)
			}
		}
		// Per-level coefficient table lookups (scattered hot structures).
		if k.ScatterTouches > 0 {
			charge(r, memmodel.ScatteredTables{
				NumTables:  coefTables,
				TableBytes: 2048,
				Count:      k.ScatterTouches,
			}, region(r, coefVA, coefBytes))
		}
		// Residual norm: a contraction per V-cycle.
		residual *= 0.31
		if err := r.WriteF64(resVA, []float64{residual * residual}); err != nil {
			return err
		}
		if err := r.AllreduceF64(resVA, 1, mpi.Sum); err != nil {
			return err
		}
		var got [1]float64
		if err := r.ReadF64(resVA, got[:]); err != nil {
			return err
		}
		want := float64(p) * residual * residual
		if math.Abs(got[0]-want) > 1e-12*want {
			return fmt.Errorf("mg: VERIFICATION FAILED: norm %g want %g", got[0], want)
		}
	}
	// Verification: the V-cycle contraction must have reduced the
	// residual by the expected total factor.
	if want := math.Pow(0.31, float64(k.Cycles)); math.Abs(residual-want) > 1e-12 {
		return fmt.Errorf("mg: VERIFICATION FAILED: final residual %g want %g", residual, want)
	}
	return nil
}
