package mpi

import (
	"runtime"
	"testing"
)

// TestWorldFootprintPerRank guards the lazy per-node structures. It
// builds a 1024-rank Opteron world, runs one 4 KiB ring exchange, and
// bounds the heap bytes (runtime.MemStats.TotalAlloc) allocated per rank
// by each step.
//
// Building measured 7.3 KB per rank (Go 1.24, linux/amd64), and the
// exchange about 12 KB. The bounds leave a margin of about 1.6×, so Go
// versions may differ without tripping them. Each per-node structure
// that went back to being allocated eagerly costs more than that margin:
//   - the adapter's 1024-entry ATT cache, 24 KiB;
//   - the DTLB's 544 small-page entries, 8.5 KiB;
//   - the 4096-frame scrambled free list, 32 KiB;
//   - a heap object per mapped small page, about 29 KiB per rank of
//     this run.
func TestWorldFootprintPerRank(t *testing.T) {
	const (
		ranks    = 1024
		maxBuild = 12 << 10
		maxRun   = 20 << 10
		msg      = 4 << 10
	)
	var before, built, ran runtime.MemStats
	runtime.ReadMemStats(&before)
	w := mustWorld(t, defaultCfg(ranks))
	runtime.ReadMemStats(&built)
	err := w.Run(func(r *Rank) error {
		sva, err := r.Malloc(msg)
		if err != nil {
			return err
		}
		rva, err := r.Malloc(msg)
		if err != nil {
			return err
		}
		right, left := (r.ID()+1)%r.Size(), (r.ID()-1+r.Size())%r.Size()
		_, err = r.Sendrecv(right, 0, sva, msg, left, 0, rva, msg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ran)
	build := (built.TotalAlloc - before.TotalAlloc) / ranks
	run := (ran.TotalAlloc - built.TotalAlloc) / ranks
	t.Logf("build %d B/rank, run %d B/rank", build, run)
	if build > maxBuild {
		t.Errorf("building the world allocated %d B per rank, bound %d", build, maxBuild)
	}
	if run > maxRun {
		t.Errorf("one ring exchange allocated %d B per rank, bound %d", run, maxRun)
	}
}
