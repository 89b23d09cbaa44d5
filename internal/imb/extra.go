package imb

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/simtime"
)

// Beyond the paper's SendRecv test, the IMB suite's PingPong and Exchange
// patterns are implemented for completeness: PingPong measures half-round-
// trip latency (the classic small-message metric the Section 4 offsets
// and SGE counts feed into), Exchange the bidirectional neighbour pattern
// of stencil codes.

// PingPongResult is one row of the PingPong latency table.
type PingPongResult struct {
	Bytes        int
	Iters        int
	LatencyTicks simtime.Ticks // half round trip
	LatencyUsec  float64
}

// PingPong runs the classic two-rank ping-pong and reports half-round-trip
// latency per message size.
func PingPong(cfg mpi.Config, sizes []int) ([]PingPongResult, error) {
	cfg.Ranks = 2
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	results := make([]PingPongResult, len(sizes))
	maxBytes := 0
	for _, s := range sizes {
		if s > maxBytes {
			maxBytes = s
		}
	}
	if maxBytes == 0 {
		maxBytes = 1
	}
	err = w.Run(func(r *mpi.Rank) error {
		va, err := r.Malloc(uint64(maxBytes))
		if err != nil {
			return err
		}
		peer := 1 - r.ID()
		for si, bytes := range sizes {
			iters := iterationsFor(bytes)
			if err := r.Barrier(); err != nil {
				return err
			}
			t0 := r.Now()
			for it := 0; it < iters; it++ {
				if r.ID() == 0 {
					if err := r.Send(peer, si, va, bytes); err != nil {
						return err
					}
					if _, err := r.Recv(peer, si, va, bytes); err != nil {
						return err
					}
				} else {
					if _, err := r.Recv(peer, si, va, bytes); err != nil {
						return err
					}
					if err := r.Send(peer, si, va, bytes); err != nil {
						return err
					}
				}
			}
			if r.ID() == 0 {
				half := (r.Now() - t0) / simtime.Ticks(2*iters)
				results[si] = PingPongResult{
					Bytes: bytes, Iters: iters,
					LatencyTicks: half,
					LatencyUsec:  half.Micros(),
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("imb: pingpong: %w", err)
	}
	w.EndTrace()
	return results, nil
}

// ExchangeResult is one row of the Exchange table.
type ExchangeResult struct {
	Bytes        int
	Iters        int
	TicksPerIter simtime.Ticks
	// BandwidthMBs counts all four transfers per iteration, as IMB does.
	BandwidthMBs float64
}

// Exchange runs the IMB Exchange pattern: every rank exchanges with both
// chain neighbours each iteration (two sends + two receives).
func Exchange(cfg mpi.Config, sizes []int) ([]ExchangeResult, error) {
	if cfg.Ranks == 0 {
		cfg.Ranks = 4
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	results := make([]ExchangeResult, len(sizes))
	maxBytes := 0
	for _, s := range sizes {
		if s > maxBytes {
			maxBytes = s
		}
	}
	err = w.Run(func(r *mpi.Rank) error {
		sva, err := r.Malloc(uint64(maxBytes))
		if err != nil {
			return err
		}
		rva, err := r.Malloc(uint64(maxBytes))
		if err != nil {
			return err
		}
		left := (r.ID() - 1 + r.Size()) % r.Size()
		right := (r.ID() + 1) % r.Size()
		for si, bytes := range sizes {
			iters := iterationsFor(bytes)
			if err := r.Barrier(); err != nil {
				return err
			}
			t0 := r.Now()
			for it := 0; it < iters; it++ {
				tagA, tagB := si*64+it%32, 4096+si*64+it%32
				if _, err := r.Sendrecv(left, tagA, sva, bytes, right, tagA, rva, bytes); err != nil {
					return err
				}
				if _, err := r.Sendrecv(right, tagB, sva, bytes, left, tagB, rva, bytes); err != nil {
					return err
				}
			}
			if r.ID() == 0 {
				per := (r.Now() - t0) / simtime.Ticks(iters)
				results[si] = ExchangeResult{
					Bytes: bytes, Iters: iters, TicksPerIter: per,
					BandwidthMBs: 4 * float64(bytes) / (float64(per.Nanos()) / 1000.0),
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("imb: exchange: %w", err)
	}
	w.EndTrace()
	return results, nil
}
