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

// moeRoutes is one world's routing: the TopK destination experts of
// every token of every rank in every iteration, in one flat slice.
type moeRoutes struct {
	k, tokens, ranks int
	dsts             []int // [iter][src][token][k]
}

// of returns the destination experts of token t that rank src emits in
// iteration iter.
func (rt *moeRoutes) of(iter, src, t int) []int {
	i := ((iter*rt.ranks+src)*rt.tokens + t) * rt.k
	return rt.dsts[i : i+rt.k]
}

// moeRouting draws a whole world's routing. RunMoE calls it once, before
// the ranks run, and every rank reads every peer's routing (and hence
// its own receive counts) from the one table, with no metadata
// exchange. Each (iter, chunk, src) draws from a source seeded from the
// parameters alone, and each token's permutation is drawn into one
// reused buffer in rand.Perm's draw order, so the routing is what a
// fresh source seeded the same way, calling Intn and Perm, would draw.
func moeRouting(p MoEParams, ranks int) *moeRoutes {
	groupSize := ranks / p.Groups
	rt := &moeRoutes{k: min(p.TopK, groupSize), tokens: p.Tokens, ranks: ranks}
	rt.dsts = make([]int, p.Iters*ranks*p.Tokens*rt.k)
	rng := rand.New(rand.NewSource(0)) // re-seeded for every (iter, chunk, src)
	perm := make([]int, groupSize)
	for iter := 0; iter < p.Iters; iter++ {
		for chunk := 0; chunk < p.Chunks; chunk++ {
			lo, hi := chunkRange(p.Tokens, p.Chunks, chunk)
			for src := 0; src < ranks; src++ {
				rng.Seed(int64(p.Seed)<<32 ^ int64(iter*1048576+chunk*65536+src))
				for t := lo; t < hi; t++ {
					g := rng.Intn(p.Groups)
					for i := range perm { // rand.Perm(groupSize)
						j := rng.Intn(i + 1)
						perm[i] = perm[j]
						perm[j] = i
					}
					dsts := rt.of(iter, src, t)
					for i := range dsts {
						dsts[i] = g*groupSize + perm[i]
					}
				}
			}
		}
	}
	return rt
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
	routes := moeRouting(p, cfg.Ranks)
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
		// Each chunk's exchange layouts, reset for every chunk: the
		// dispatch pieces and counts, and the combine's.
		pieces := make([][]mpi.Piece, ranks)
		rc, rd := make([]int, ranks), make([]int, ranks)
		rc2, rd2 := make([]int, ranks), make([]int, ranks)
		// Token t's activation row is byte(r.ID()*131 + t*17 + it + i).
		for it := 0; it < p.Iters; it++ {
			// Fresh activations (new layer input each iteration).
			for t := 0; t < p.Tokens; t++ {
				if err := r.WriteRamp(tokVA+vm.VA(t*p.Hidden), r.ID()*131+t*17+it, p.Hidden); err != nil {
					return err
				}
			}
			for c := 0; c < p.Chunks; c++ {
				// Own sends + the receive counts implied by the peers'
				// routing this chunk.
				for d := range pieces {
					pieces[d] = pieces[d][:0]
				}
				clear(rc)
				lo, hi := chunkRange(p.Tokens, p.Chunks, c)
				for src := 0; src < ranks; src++ {
					for t := lo; t < hi; t++ {
						for _, d := range routes.of(it, src, t) {
							if src == r.ID() {
								pieces[d] = append(pieces[d], mpi.Piece{
									VA:  tokVA + vm.VA(t*p.Hidden),
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
				clear(rc2)
				retTotal := 0
				for t := lo; t < hi; t++ {
					for _, d := range routes.of(it, r.ID(), t) {
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
