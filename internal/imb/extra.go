package imb

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/simtime"
)

// Beyond the paper's SendRecv test, the IMB suite's PingPong pattern is
// implemented: it measures half-round-trip latency (the classic
// small-message metric the Section 4 offsets and SGE counts feed into).

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
