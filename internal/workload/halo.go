// halo.go is the Boyle-et-al-style 2-D halo-exchange + allreduce kernel
// of the modern pack: ranks tile a periodic 2-D domain, every iteration
// exchanges the four boundary strips with the torus neighbours — rows
// travel contiguously, columns as per-element pieces whose SGE-or-pack
// form the policy engine picks — then runs a stencil sweep and a global
// residual allreduce. The strided column exchange is the Section 4
// scenario (many small pieces, one work request) embedded in a real
// communication pattern.
package workload

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// HaloParams sizes the halo-exchange workload.
type HaloParams struct {
	Seed  uint64
	N     int // local subdomain edge (N×N float64 cells + halo ring)
	Iters int
	// StencilFactor scales the sweep's FLOP time relative to streaming
	// the subdomain once.
	StencilFactor int
	// ResidualF64s is the per-iteration allreduce length.
	ResidualF64s int
}

// DefaultHaloParams: a 96² float64 field (≈74 KiB — hugepage-threshold
// sized, so the allocator choice decides its backing) and a
// rendezvous-sized residual reduction.
func DefaultHaloParams() HaloParams {
	return HaloParams{Seed: 1, N: 96, Iters: 6, StencilFactor: 8, ResidualF64s: 4096}
}

// HaloResult aggregates the run across ranks.
type HaloResult struct {
	HaloTicks    simtime.Ticks // summed over ranks: boundary exchange
	ComputeTicks simtime.Ticks // summed over ranks: stencil sweeps
	ReduceTicks  simtime.Ticks // summed over ranks: residual allreduce
	Makespan     simtime.Ticks
}

// haloGrid factors p into the most square px×py tiling.
func haloGrid(p int) (px, py int) {
	px = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			px = d
		}
	}
	return px, p / px
}

// RunHalo executes the workload on a fresh world built from cfg.
func RunHalo(cfg mpi.Config, p HaloParams) (*HaloResult, error) {
	if p.N < 4 {
		return nil, fmt.Errorf("workload: halo: N must be at least 4")
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	px, py := haloGrid(cfg.Ranks)
	res := &HaloResult{}
	halo := make([]simtime.Ticks, cfg.Ranks)
	comp := make([]simtime.Ticks, cfg.Ranks)
	red := make([]simtime.Ticks, cfg.Ranks)
	err = w.Run(func(r *mpi.Rank) error {
		const cell = 8 // float64
		stride := p.N + 2
		bytes := uint64(stride * stride * cell)
		fieldVA, err := r.Malloc(bytes)
		if err != nil {
			return err
		}
		// Deterministic initial field (the seed varies the data, not the
		// timing — the sweep's seed replicates stay byte-identical).
		init := make([]float64, stride*stride)
		for i := range init {
			init[i] = float64((r.ID()+1)*(i%97+1)+int(p.Seed%1024)) * 0.001
		}
		if err := r.WriteF64(fieldVA, init); err != nil {
			return err
		}
		// Torus coordinates and neighbours.
		cx, cy := r.ID()%px, r.ID()/px
		at := func(x, y int) int { return ((y+py)%py)*px + (x+px)%px }
		north, south := at(cx, cy-1), at(cx, cy+1)
		west, east := at(cx-1, cy), at(cx+1, cy)
		rowVA := func(row int) vm.VA { return fieldVA + vm.VA(row*stride*cell) }
		colPieces := func(col int) []mpi.Piece {
			ps := make([]mpi.Piece, p.N)
			for i := 0; i < p.N; i++ {
				ps[i] = mpi.Piece{VA: fieldVA + vm.VA(((i+1)*stride+col)*cell), Len: cell}
			}
			return ps
		}
		resVA, err := r.Malloc(uint64(8 * p.ResidualF64s))
		if err != nil {
			return err
		}
		residual := make([]float64, p.ResidualF64s)
		const (
			tagRow = 1 << 16
			tagCol = 2 << 16
		)
		rowBytes := stride * cell
		for it := 0; it < p.Iters; it++ {
			t0 := r.Now()
			// Row exchange (contiguous): top boundary north, bottom south.
			if north != r.ID() {
				if _, err := r.Sendrecv(
					north, tagRow+2*it, rowVA(1), rowBytes,
					south, tagRow+2*it, rowVA(stride-1), rowBytes); err != nil {
					return err
				}
				if _, err := r.Sendrecv(
					south, tagRow+2*it+1, rowVA(stride-2), rowBytes,
					north, tagRow+2*it+1, rowVA(0), rowBytes); err != nil {
					return err
				}
			}
			// Column exchange (strided pieces): the eager-sized payload
			// never blocks on a rendezvous handshake, so the ring of
			// send-then-receive pairs cannot deadlock.
			if west != r.ID() {
				if err := r.SendPieces(west, tagCol+2*it, colPieces(1)); err != nil {
					return err
				}
				if err := r.RecvUnpack(east, tagCol+2*it, colPieces(stride-1)); err != nil {
					return err
				}
				if err := r.SendPieces(east, tagCol+2*it+1, colPieces(stride-2)); err != nil {
					return err
				}
				if err := r.RecvUnpack(west, tagCol+2*it+1, colPieces(0)); err != nil {
					return err
				}
			}
			halo[r.ID()] += r.Now() - t0
			// Stencil sweep: stream the field, charge the FLOPs.
			t0 = r.Now()
			if err := r.Touch(fieldVA, int(bytes)); err != nil {
				return err
			}
			r.Compute(simtime.BandwidthTicks(int64(bytes)*int64(p.StencilFactor),
				cfg.Machine.Mem.CopyBandwidthMBs))
			comp[r.ID()] += r.Now() - t0
			// Residual allreduce.
			t0 = r.Now()
			for i := range residual {
				residual[i] = float64(r.ID()+i+it) * 0.5
			}
			if err := r.WriteF64(resVA, residual); err != nil {
				return err
			}
			if err := r.AllreduceF64(resVA, p.ResidualF64s, mpi.Sum); err != nil {
				return err
			}
			red[r.ID()] += r.Now() - t0
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Ranks; i++ {
		res.HaloTicks += halo[i]
		res.ComputeTicks += comp[i]
		res.ReduceTicks += red[i]
	}
	res.Makespan = w.MaxTime()
	return res, nil
}
