// Stencil: a domain application — an iterative 1-D heat-diffusion solver
// with halo exchanges — run twice: once with plain libc placement and
// once preloaded with the paper's hugepage library. This is the Figure 6
// experiment in miniature, on a program you can read end to end: same
// numerics, different placement, and the mpiP-style profile shows where
// the time went.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

const (
	cellsPerRank = 96 << 10 // 768 KiB of float64 per rank
	haloCells    = 8 << 10  // 64 KiB halo: rendezvous territory
	iters        = 30
	alpha        = 0.25
)

// result carries the timings and the converged checksum.
type result struct {
	comm, compute, total repro.Ticks
	checksum             float64
	pinnedKiB            int64
}

func run(m *repro.Machine, s repro.Strategy, ranks int) (result, error) {
	cluster, err := repro.NewCluster(s.Apply(repro.ClusterConfig{Machine: m, Ranks: ranks}))
	if err != nil {
		return result{}, err
	}
	sums := make([]float64, ranks)
	err = cluster.Run(func(r *repro.Rank) error {
		// Field + two halo buffers, allocated through the strategy's
		// allocation library (this is where placement happens).
		field, err := r.Malloc(8 * cellsPerRank)
		if err != nil {
			return err
		}
		_ = field // placement target for the full field (streamed below)
		haloL, err := r.Malloc(8 * haloCells)
		if err != nil {
			return err
		}
		haloR, err := r.Malloc(8 * haloCells)
		if err != nil {
			return err
		}
		u := make([]float64, cellsPerRank)
		for i := range u {
			// A hot spot in the middle of the global domain.
			gi := r.ID()*cellsPerRank + i
			u[i] = math.Exp(-float64((gi-ranks*cellsPerRank/2)*(gi-ranks*cellsPerRank/2)) / 1e9)
		}
		left := (r.ID() - 1 + r.Size()) % r.Size()
		right := (r.ID() + 1) % r.Size()

		for it := 0; it < iters; it++ {
			// Publish boundary slabs, exchange halos both ways.
			if err := r.WriteF64(haloL, u[:haloCells]); err != nil {
				return err
			}
			if err := r.WriteF64(haloR, u[cellsPerRank-haloCells:]); err != nil {
				return err
			}
			if _, err := r.Sendrecv(left, 10+it, haloL, 8*haloCells,
				right, 10+it, haloR, 8*haloCells); err != nil {
				return err
			}
			if _, err := r.Sendrecv(right, 1000+it, haloR, 8*haloCells,
				left, 1000+it, haloL, 8*haloCells); err != nil {
				return err
			}
			// Relax the interior (real arithmetic) and charge the sweep
			// over the field as compute time.
			for i := 1; i < cellsPerRank-1; i += 1 {
				u[i] += alpha * (u[i-1] - 2*u[i] + u[i+1])
			}
			r.Compute(repro.Ticks(cellsPerRank / 16)) // stream cost stand-in
		}
		var sum float64
		for _, v := range u {
			sum += v
		}
		sums[r.ID()] = sum
		return nil
	})
	if err != nil {
		return result{}, err
	}
	var checksum float64
	for _, s := range sums {
		checksum += s
	}
	var comm, compute repro.Ticks
	for i := 0; i < ranks; i++ {
		comm += cluster.Rank(i).CommTime()
		compute += cluster.Rank(i).ComputeTime()
	}
	return result{
		comm:      comm,
		compute:   compute,
		total:     comm + compute,
		checksum:  checksum,
		pinnedKiB: cluster.Rank(0).Cache().Stats().PinnedBytes / 1024,
	}, nil
}

func main() {
	m := repro.Opteron()
	const ranks = 4
	libc, err := run(m, repro.MustStrategy("small"), ranks) // libc placement, no reg cache
	if err != nil {
		log.Fatal(err)
	}
	hp, err := run(m, repro.MustStrategy("huge-lazy"), ranks)
	if err != nil {
		log.Fatal(err)
	}
	if math.Abs(libc.checksum-hp.checksum) > 1e-9 {
		log.Fatalf("numerics diverged: %g vs %g", libc.checksum, hp.checksum)
	}
	fmt.Printf("1-D diffusion, %d ranks, %d iterations, 64 KiB halos (checksum %.6f, identical)\n\n",
		ranks, iters, hp.checksum)
	fmt.Printf("%-34s %12s %12s %12s\n", "placement", "comm", "compute", "total")
	fmt.Printf("%-34s %12v %12v %12v\n", "libc + per-message registration", libc.comm, libc.compute, libc.total)
	fmt.Printf("%-34s %12v %12v %12v\n", "hugepage library + lazy dereg", hp.comm, hp.compute, hp.total)
	fmt.Printf("\ncommunication time improvement: %.1f%%\n",
		100*(1-float64(hp.comm)/float64(libc.comm)))
	fmt.Printf("registration cache holds %d KiB pinned (the paper's noted trade-off)\n", hp.pinnedKiB)
}
