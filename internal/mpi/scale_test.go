package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/memtier"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// collectiveFingerprint is one run's complete observable outcome: every
// rank's final buffer bytes, reduced values, final clock, and the job
// makespan. Two same-seed runs must produce equal fingerprints — the
// scheduler's determinism invariant, checked end-to-end.
type collectiveFingerprint struct {
	allreduce [][]float64
	alltoall  [][]byte
	clocks    []simtime.Ticks
	makespan  simtime.Ticks
}

// runCollectives64 drives AllreduceF64 + Alltoallv on a 64-rank
// world with fault injection armed, and fingerprints the outcome.
func runCollectives64(t *testing.T, ranks int) *collectiveFingerprint {
	t.Helper()
	spec, err := faults.ParseSpec("seed=9,attevict=700,wr=400")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{
		Machine:   machine.Opteron(),
		Ranks:     ranks,
		Allocator: AllocHuge,
		LazyDereg: true,
		HugeATT:   true,
		Faults:    spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		redCount = 512
		block    = 1 << 10 // eager path, p·block per rank
	)
	fp := &collectiveFingerprint{
		allreduce: make([][]float64, ranks),
		alltoall:  make([][]byte, ranks),
		clocks:    make([]simtime.Ticks, ranks),
	}
	err = w.Run(func(r *Rank) error {
		rva, err := r.Malloc(8 * redCount)
		if err != nil {
			return err
		}
		vals := make([]float64, redCount)
		for i := range vals {
			vals[i] = float64((r.ID()+1)*(i+3)) * 0.5
		}
		if err := r.WriteF64(rva, vals); err != nil {
			return err
		}
		if err := r.AllreduceF64(rva, redCount, Sum); err != nil {
			return err
		}
		fp.allreduce[r.ID()] = make([]float64, redCount)
		if err := r.ReadF64(rva, fp.allreduce[r.ID()]); err != nil {
			return err
		}

		sva, err := r.Malloc(uint64(ranks * block))
		if err != nil {
			return err
		}
		dva, err := r.Malloc(uint64(ranks * block))
		if err != nil {
			return err
		}
		out := make([]byte, ranks*block)
		for i := range out {
			out[i] = byte(r.ID() ^ i)
		}
		if err := r.WriteBytes(sva, out); err != nil {
			return err
		}
		counts, displs := make([]int, ranks), make([]int, ranks)
		for i := range counts {
			counts[i], displs[i] = block, i*block
		}
		if err := r.Alltoallv(sva, counts, displs, dva, counts, displs); err != nil {
			return err
		}
		fp.alltoall[r.ID()] = make([]byte, ranks*block)
		if err := r.ReadBytes(dva, fp.alltoall[r.ID()]); err != nil {
			return err
		}
		fp.clocks[r.ID()] = r.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fp.makespan = w.MaxTime()
	return fp
}

// TestCollectives64RankDeterminism runs the 64-rank collectives twice
// with the same seed and requires byte-identical outcomes: payloads,
// per-rank clocks and the makespan. Pre-refactor (one goroutine per
// rank, real channels) this scale was infeasible under -race; on the
// event scheduler it is routine, and the schedule is provably identical
// because the run-queue order is a pure function of virtual time.
func TestCollectives64RankDeterminism(t *testing.T) {
	const ranks = 64
	a := runCollectives64(t, ranks)
	b := runCollectives64(t, ranks)

	if a.makespan != b.makespan {
		t.Fatalf("makespan differs across runs: %d vs %d", a.makespan, b.makespan)
	}
	for i := 0; i < ranks; i++ {
		if a.clocks[i] != b.clocks[i] {
			t.Fatalf("rank %d final clock differs: %d vs %d", i, a.clocks[i], b.clocks[i])
		}
		if !bytes.Equal(a.alltoall[i], b.alltoall[i]) {
			t.Fatalf("rank %d alltoall payload differs across runs", i)
		}
		if fmt.Sprint(a.allreduce[i]) != fmt.Sprint(b.allreduce[i]) {
			t.Fatalf("rank %d allreduce result differs across runs", i)
		}
	}

	// Correctness spot checks, so determinism is not vacuous: the
	// allreduce matches the closed form, and alltoall block j on rank i
	// came from rank j's block i.
	for i := 0; i < ranks; i++ {
		// sum over r of (r+1)*(k+3)*0.5 = (k+3)*0.5 * ranks*(ranks+1)/2
		scale := 0.5 * float64(ranks) * float64(ranks+1) / 2
		for k := 0; k < 4; k++ {
			want := float64(k+3) * scale
			if got := a.allreduce[i][k]; got != want {
				t.Fatalf("rank %d allreduce[%d] = %g, want %g", i, k, got, want)
			}
		}
		for j := 0; j < ranks; j += 17 {
			if i == j {
				continue
			}
			blk := a.alltoall[i][j<<10 : j<<10+4]
			for o, v := range blk {
				if want := byte(j ^ (i<<10 + o)); v != want {
					t.Fatalf("rank %d alltoall block %d byte %d = %#x, want %#x", i, j, o, v, want)
				}
			}
		}
	}
}

// vCount is the deterministic variable block size rank i sends to rank
// j in the Alltoallv scale test: 0 to 24 KiB, so steps cross the eager,
// pipelined, and rendezvous protocol regimes (and include empty blocks).
func vCount(i, j int) int { return ((i*31 + j*17) % 7) * (4 << 10) }

// alltoallvFingerprint is one Alltoallv run's observable outcome.
type alltoallvFingerprint struct {
	recv     [][]byte
	coll     []string
	clocks   []simtime.Ticks
	makespan simtime.Ticks
}

// runAlltoallv64 drives a variable-count Alltoallv on a 64-rank world
// with fault injection and the tiered-memory model armed (so tier
// placement charges are part of the fingerprinted schedule).
func runAlltoallv64(t *testing.T, ranks int) *alltoallvFingerprint {
	t.Helper()
	spec, err := faults.ParseSpec("seed=11,attevict=900,wr=500")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{
		Machine:   machine.Opteron(),
		Ranks:     ranks,
		Allocator: AllocHuge,
		LazyDereg: true,
		HugeATT:   true,
		Faults:    spec,
		Tiers:     memtier.TwoTier(1<<20, 120, 900),
	})
	if err != nil {
		t.Fatal(err)
	}
	fp := &alltoallvFingerprint{
		recv:   make([][]byte, ranks),
		coll:   make([]string, ranks),
		clocks: make([]simtime.Ticks, ranks),
	}
	err = w.Run(func(r *Rank) error {
		p := r.Size()
		sc := make([]int, p)
		sd := make([]int, p)
		rc := make([]int, p)
		rd := make([]int, p)
		sTotal, rTotal := 0, 0
		for j := 0; j < p; j++ {
			sc[j] = vCount(r.ID(), j)
			sd[j] = sTotal
			sTotal += sc[j]
			rc[j] = vCount(j, r.ID())
			rd[j] = rTotal
			rTotal += rc[j]
		}
		sva, err := r.Malloc(uint64(sTotal))
		if err != nil {
			return err
		}
		dva, err := r.Malloc(uint64(rTotal))
		if err != nil {
			return err
		}
		out := make([]byte, sTotal)
		for i := range out {
			out[i] = byte(r.ID()*37 + i)
		}
		if err := r.WriteBytes(sva, out); err != nil {
			return err
		}
		if err := r.Alltoallv(sva, sc, sd, dva, rc, rd); err != nil {
			return err
		}
		fp.recv[r.ID()] = make([]byte, rTotal)
		if err := r.ReadBytes(dva, fp.recv[r.ID()]); err != nil {
			return err
		}
		fp.coll[r.ID()] = fmt.Sprint(r.node.Stats().Coll)
		fp.clocks[r.ID()] = r.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fp.makespan = w.MaxTime()
	return fp
}

// TestAlltoallv64RankDeterminism runs the 64-rank variable-count
// Alltoallv twice with the same seed and requires byte-identical
// outcomes — payloads, collective counters, per-rank clocks, makespan —
// then verifies the data movement itself against the closed form.
func TestAlltoallv64RankDeterminism(t *testing.T) {
	const ranks = 64
	a := runAlltoallv64(t, ranks)
	b := runAlltoallv64(t, ranks)

	if a.makespan != b.makespan {
		t.Fatalf("makespan differs across runs: %d vs %d", a.makespan, b.makespan)
	}
	for i := 0; i < ranks; i++ {
		if a.clocks[i] != b.clocks[i] {
			t.Fatalf("rank %d final clock differs: %d vs %d", i, a.clocks[i], b.clocks[i])
		}
		if !bytes.Equal(a.recv[i], b.recv[i]) {
			t.Fatalf("rank %d alltoallv payload differs across runs", i)
		}
		if a.coll[i] != b.coll[i] {
			t.Fatalf("rank %d collective counters differ: %s vs %s", i, a.coll[i], b.coll[i])
		}
	}

	// Correctness: rank i's block from rank j holds j's bytes at j's
	// send displacement for i.
	for i := 0; i < ranks; i += 13 {
		rdOff := 0
		for j := 0; j < ranks; j++ {
			n := vCount(j, i)
			sdOff := 0
			for d := 0; d < i; d++ {
				sdOff += vCount(j, d)
			}
			for o := 0; o < n; o += 997 {
				got := a.recv[i][rdOff+o]
				if want := byte(j*37 + sdOff + o); got != want {
					t.Fatalf("rank %d byte %d from rank %d = %#x, want %#x", i, o, j, got, want)
				}
			}
			rdOff += n
		}
	}
}

// TestAlltoallvPieces exchanges scattered pieces on 8 ranks, covering
// both the SGE-gather branch (few large pieces) and the pack branch
// (many tiny pieces), and checks reassembly plus the collective
// counters.
func TestAlltoallvPieces(t *testing.T) {
	const ranks = 8
	for _, tc := range []struct {
		name      string
		pieceLen  int
		pieces    int
		wantSteps int64
	}{
		{"gather", 2 << 10, 4, ranks - 1},
		{"pack", 16, 192, ranks - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(Config{
				Machine:   machine.Opteron(),
				Ranks:     ranks,
				Allocator: AllocHuge,
				LazyDereg: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			block := tc.pieceLen * tc.pieces
			got := make([][]byte, ranks)
			err = w.Run(func(r *Rank) error {
				p := r.Size()
				// One source arena; rank d's pieces are strided through it.
				sva, err := r.Malloc(uint64(p * block))
				if err != nil {
					return err
				}
				dva, err := r.Malloc(uint64(p * block))
				if err != nil {
					return err
				}
				out := make([]byte, p*block)
				for i := range out {
					out[i] = byte(r.ID() + i*3)
				}
				if err := r.WriteBytes(sva, out); err != nil {
					return err
				}
				pieces := make([][]Piece, p)
				rc := make([]int, p)
				rd := make([]int, p)
				for d := 0; d < p; d++ {
					for k := 0; k < tc.pieces; k++ {
						// Stride pieces so destination d's data is
						// non-contiguous in the source arena.
						off := (k*p + d) * tc.pieceLen
						pieces[d] = append(pieces[d], Piece{VA: sva + vm.VA(off), Len: tc.pieceLen})
					}
					rc[d] = block
					rd[d] = d * block
				}
				if err := r.AlltoallvPieces(pieces, dva, rc, rd); err != nil {
					return err
				}
				got[r.ID()] = make([]byte, p*block)
				if err := r.ReadBytes(dva, got[r.ID()]); err != nil {
					return err
				}
				cs := r.node.Stats().Coll
				if cs.Alltoallvs != 1 || cs.PairwiseSteps != tc.wantSteps {
					return fmt.Errorf("rank %d coll counters %+v", r.ID(), cs)
				}
				if cs.BytesSent != int64((p-1)*block) || cs.BytesRecv != int64((p-1)*block) {
					return fmt.Errorf("rank %d coll bytes %+v", r.ID(), cs)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Rank i's block from rank j is j's pieces for i, in order:
			// piece k starts at source offset (k*p+i)*pieceLen.
			for i := 0; i < ranks; i++ {
				for j := 0; j < ranks; j++ {
					for k := 0; k < tc.pieces; k++ {
						srcOff := (k*ranks + i) * tc.pieceLen
						dstOff := j*block + k*tc.pieceLen
						for o := 0; o < tc.pieceLen; o += 7 {
							gotB := got[i][dstOff+o]
							if want := byte(j + (srcOff+o)*3); gotB != want {
								t.Fatalf("rank %d from %d piece %d byte %d = %#x, want %#x",
									i, j, k, o, gotB, want)
							}
						}
					}
				}
			}
		})
	}
}
