// Aggregation: the Section 4 scenario. A sender has several small,
// non-contiguous pieces (e.g. a matrix row scattered across structs).
// The classic path packs them with CPU copies (MPI_Pack) into one
// contiguous buffer; the paper's proposal posts ONE work request whose
// scatter/gather list references the pieces in place. This example runs
// both paths and prints the measured costs.
package main

import (
	"fmt"
	"log"

	"repro"
)

const (
	pieceLen = 96
	npieces  = 8
	rounds   = 40
)

func run(gathered bool) (repro.Ticks, error) {
	cluster, err := repro.NewCluster(repro.MustStrategy("huge-lazy").Apply(
		repro.ClusterConfig{Machine: repro.SystemP(), Ranks: 2}))
	if err != nil {
		return 0, err
	}
	var perSend repro.Ticks
	err = cluster.Run(func(r *repro.Rank) error {
		base, err := r.Malloc(64 << 10)
		if err != nil {
			return err
		}
		// One piece per page, at the preferred offset 64 (Figure 4).
		pieces := make([]repro.Piece, npieces)
		for i := range pieces {
			pieces[i] = repro.Piece{VA: base + repro.VA(i*4096+64), Len: pieceLen}
		}
		if r.ID() == 0 {
			for i := range pieces {
				fill := make([]byte, pieceLen)
				for j := range fill {
					fill[j] = byte(i*16 + j)
				}
				if err := r.WriteBytes(pieces[i].VA, fill); err != nil {
					return err
				}
			}
			t0 := r.Now()
			for it := 0; it < rounds; it++ {
				if gathered {
					if err := r.SendGathered(1, it, pieces); err != nil {
						return err
					}
				} else {
					if err := r.SendPacked(1, it, pieces); err != nil {
						return err
					}
				}
			}
			perSend = (r.Now() - t0) / rounds
			return nil
		}
		for it := 0; it < rounds; it++ {
			if err := r.RecvUnpack(0, it, pieces); err != nil {
				return err
			}
		}
		// Verify the scattered content arrived piecewise intact.
		for i := range pieces {
			got := make([]byte, pieceLen)
			if err := r.ReadBytes(pieces[i].VA, got); err != nil {
				return err
			}
			for j := range got {
				if got[j] != byte(i*16+j) {
					return fmt.Errorf("piece %d corrupted at %d", i, j)
				}
			}
		}
		return nil
	})
	return perSend, err
}

func main() {
	fmt.Printf("scenario: %d pieces x %d bytes, non-contiguous\n\n", npieces, pieceLen)

	packed, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	gathered, err := run(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured per-send cost, MPI_Pack copies:      %v\n", packed)
	fmt.Printf("measured per-send cost, scatter/gather list:  %v\n", gathered)
	fmt.Printf("SGE aggregation saves %.1f%% (paper Section 4: \"MPI implementations\n", 100*(1-float64(gathered)/float64(packed)))
	fmt.Println("for InfiniBand may benefit in a perceptible way by using this feature\")")
}
