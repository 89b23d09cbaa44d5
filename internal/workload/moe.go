// moe.go is the DeepEP-style Mixture-of-Experts dispatch/combine
// workload of the modern pack: every rank hosts one expert, every token
// is routed to TopK experts inside one gating group (group-limited
// routing, which bounds the fan-out exactly like DeepEP's
// group-limited gating bounds NVLink/RDMA traffic), and each iteration
// pipelines dispatch → expert compute → combine in chunks so
// communication of one chunk overlaps the neighbours' compute in
// virtual time. Dispatch is the canonical AlltoallvPieces consumer:
// token rows scattered through the activation buffer travel either as
// one SGE gather list or packed, per the policy engine.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// MoEParams sizes the MoE dispatch/combine workload.
type MoEParams struct {
	Seed   uint64
	Tokens int // tokens per rank per iteration
	Hidden int // bytes per token row
	Groups int // gating groups (must divide the rank count)
	TopK   int // experts each token visits (within its group)
	Iters  int // training iterations
	Chunks int // pipeline chunks per iteration (dispatch/compute/combine)
	// ComputeFactor scales expert FLOP time relative to streaming the
	// received rows once.
	ComputeFactor int
}

// DefaultMoEParams is sized so one sweep cell stays under a second.
func DefaultMoEParams() MoEParams {
	return MoEParams{
		Seed:          1,
		Tokens:        128,
		Hidden:        1024,
		Groups:        2,
		TopK:          2,
		Iters:         3,
		Chunks:        2,
		ComputeFactor: 4,
	}
}

// MoEResult aggregates the run across ranks.
type MoEResult struct {
	DispatchTicks simtime.Ticks // summed over ranks: AlltoallvPieces time
	CombineTicks  simtime.Ticks // summed over ranks: combine Alltoallv time
	ComputeTicks  simtime.Ticks // summed over ranks: expert + scatter-add
	Makespan      simtime.Ticks
	RoutedRows    int64 // token·expert assignments dispatched
}

// moeRouting returns the TopK destination experts of every token rank
// src emits in (iter, chunk) — a pure function of the parameters, so
// every rank derives every peer's routing (and hence its own receive
// counts) without metadata exchange. It re-seeds rng, which the caller
// keeps from call to call, so the routing is what a fresh source seeded
// the same way would draw.
func moeRouting(rng *rand.Rand, p MoEParams, ranks, iter, chunk, src int) [][]int {
	lo, hi := chunkRange(p.Tokens, p.Chunks, chunk)
	rng.Seed(int64(p.Seed)<<32 ^ int64(iter*1048576+chunk*65536+src))
	groupSize := ranks / p.Groups
	out := make([][]int, hi-lo)
	for t := range out {
		g := rng.Intn(p.Groups)
		perm := rng.Perm(groupSize)
		k := p.TopK
		if k > groupSize {
			k = groupSize
		}
		dsts := make([]int, k)
		for i := 0; i < k; i++ {
			dsts[i] = g*groupSize + perm[i]
		}
		out[t] = dsts
	}
	return out
}

// chunkRange splits n tokens into even chunks, remainder to the front.
func chunkRange(n, chunks, c int) (lo, hi int) {
	base, rem := n/chunks, n%chunks
	lo = c*base + min(c, rem)
	hi = lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}

// RunMoE executes the workload on a fresh world built from cfg.
func RunMoE(cfg mpi.Config, p MoEParams) (*MoEResult, error) {
	if cfg.Ranks%p.Groups != 0 {
		return nil, fmt.Errorf("workload: moe: %d groups must divide %d ranks", p.Groups, cfg.Ranks)
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	res := &MoEResult{}
	disp := make([]simtime.Ticks, cfg.Ranks)
	comb := make([]simtime.Ticks, cfg.Ranks)
	comp := make([]simtime.Ticks, cfg.Ranks)
	routed := make([]int64, cfg.Ranks)
	err = w.Run(func(r *mpi.Rank) error {
		ranks := r.Size()
		// Activation buffer: one row per token, written every iteration.
		tokVA, err := r.Malloc(uint64(p.Tokens * p.Hidden))
		if err != nil {
			return err
		}
		// Expert input: worst case every token of every rank lands here.
		expCap := uint64(ranks * p.Tokens * p.TopK * p.Hidden)
		expVA, err := r.Malloc(expCap)
		if err != nil {
			return err
		}
		// Combine return buffer: TopK rows come back per own token.
		retVA, err := r.Malloc(uint64(p.Tokens * p.TopK * p.Hidden))
		if err != nil {
			return err
		}
		// Token t's activation row is byte(r.ID()*131 + t*17 + it + i).
		rng := rand.New(rand.NewSource(0)) // re-seeded by every moeRouting
		for it := 0; it < p.Iters; it++ {
			// Fresh activations (new layer input each iteration).
			for t := 0; t < p.Tokens; t++ {
				if err := r.WriteRamp(tokVA+vm.VA(t*p.Hidden), r.ID()*131+t*17+it, p.Hidden); err != nil {
					return err
				}
			}
			for c := 0; c < p.Chunks; c++ {
				// Routing for every rank this chunk: own sends + the
				// receive counts implied by the peers' routing.
				pieces := make([][]mpi.Piece, ranks)
				rc := make([]int, ranks)
				rd := make([]int, ranks)
				lo, _ := chunkRange(p.Tokens, p.Chunks, c)
				var own [][]int
				for src := 0; src < ranks; src++ {
					routing := moeRouting(rng, p, ranks, it, c, src)
					if src == r.ID() {
						own = routing
					}
					for t, dsts := range routing {
						for _, d := range dsts {
							if src == r.ID() {
								pieces[d] = append(pieces[d], mpi.Piece{
									VA:  tokVA + vm.VA((lo+t)*p.Hidden),
									Len: p.Hidden,
								})
								routed[r.ID()]++
							}
							if d == r.ID() {
								rc[src] += p.Hidden
							}
						}
					}
				}
				recvTotal := 0
				for src := 0; src < ranks; src++ {
					rd[src] = recvTotal
					recvTotal += rc[src]
				}
				// Dispatch: scattered rows, SGE/pack per policy.
				t0 := r.Now()
				if err := r.AlltoallvPieces(pieces, expVA, rc, rd); err != nil {
					return err
				}
				disp[r.ID()] += r.Now() - t0
				// Expert compute streams the received rows.
				t0 = r.Now()
				if recvTotal > 0 {
					if err := r.Touch(expVA, recvTotal); err != nil {
						return err
					}
					r.Compute(simtime.BandwidthTicks(int64(recvTotal*p.ComputeFactor),
						cfg.Machine.Mem.CopyBandwidthMBs))
				}
				comp[r.ID()] += r.Now() - t0
				// Combine: the expert returns each row to its source. Rows
				// sit grouped by source in the expert buffer, so this is
				// the contiguous Alltoallv with transposed counts.
				sc2 := rc
				sd2 := rd
				rc2 := make([]int, ranks)
				rd2 := make([]int, ranks)
				retTotal := 0
				for _, dsts := range own {
					for _, d := range dsts {
						rc2[d] += p.Hidden
					}
				}
				for d := 0; d < ranks; d++ {
					rd2[d] = retTotal
					retTotal += rc2[d]
				}
				t0 = r.Now()
				if err := r.Alltoallv(expVA, sc2, sd2, retVA, rc2, rd2); err != nil {
					return err
				}
				comb[r.ID()] += r.Now() - t0
				// Scatter-add the returned rows into the activations.
				t0 = r.Now()
				if retTotal > 0 {
					if err := r.Touch(retVA, retTotal); err != nil {
						return err
					}
					r.Compute(simtime.BandwidthTicks(int64(2*retTotal),
						cfg.Machine.Mem.CopyBandwidthMBs))
				}
				comp[r.ID()] += r.Now() - t0
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Ranks; i++ {
		res.DispatchTicks += disp[i]
		res.CombineTicks += comb[i]
		res.ComputeTicks += comp[i]
		res.RoutedRows += routed[i]
	}
	res.Makespan = w.MaxTime()
	return res, nil
}
