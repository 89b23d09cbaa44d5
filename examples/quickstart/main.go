// Quickstart: build a simulated InfiniBand cluster under the paper's
// recommended data-placement strategy ("huge-lazy") and bounce a message
// between two ranks — printing what the cached registration saves.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	m := repro.Opteron()
	strategy := repro.MustStrategy("huge-lazy")
	fmt.Printf("machine:  %s\n", m.Name)
	fmt.Printf("strategy: %s (allocator=%s lazy-dereg=%v hugepage-ATT=%v)\n\n",
		strategy.Name, strategy.Allocator, strategy.LazyDereg, strategy.HugeATT)

	cluster, err := repro.NewCluster(strategy.Apply(repro.ClusterConfig{Machine: m, Ranks: 2}))
	if err != nil {
		log.Fatal(err)
	}
	const n = 1 << 20
	err = cluster.Run(func(r *repro.Rank) error {
		buf, err := r.Malloc(n) // goes through the hugepage library
		if err != nil {
			return err
		}
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i)
		}
		if r.ID() == 0 {
			if err := r.WriteBytes(buf, payload); err != nil {
				return err
			}
			// First send registers the buffer (pin + translate + push
			// translations to the NIC); the second reuses the cached
			// registration — watch the time difference.
			t0 := r.Now()
			if err := r.Send(1, 1, buf, n); err != nil {
				return err
			}
			t1 := r.Now()
			if err := r.Send(1, 2, buf, n); err != nil {
				return err
			}
			t2 := r.Now()
			fmt.Printf("rank 0: first 1 MiB send (cold registration) %v\n", t1-t0)
			fmt.Printf("rank 0: second send (registration cached)    %v\n", t2-t1)
			return nil
		}
		if _, err := r.Recv(0, 1, buf, n); err != nil {
			return err
		}
		if _, err := r.Recv(0, 2, buf, n); err != nil {
			return err
		}
		got := make([]byte, n)
		if err := r.ReadBytes(buf, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != byte(i) {
				return fmt.Errorf("payload corrupted at %d", i)
			}
		}
		fmt.Printf("rank 1: received and verified %d bytes at t=%v\n", n, r.Now())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njob makespan: %v (virtual)\n", cluster.MaxTime())
	fmt.Printf("rank 0 pinned by the registration cache: %d KiB\n",
		cluster.Rank(0).Cache().Stats().PinnedBytes/1024)
}
