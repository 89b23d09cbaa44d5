package mpi

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkSendrecv8 drives one full ring exchange (every rank Sendrecvs
// its right neighbour) of 64 KiB rendezvous messages across 8 ranks per
// iteration — the shape of the IMB SendRecv inner loop. It measures the
// per-exchange overhead of the execution engine: under the old
// goroutine-pair design each exchange cost a forked OS goroutine plus
// three gate handshakes per rank; under the event scheduler it is a
// deterministic sequence of task switches.
func BenchmarkSendrecv8(b *testing.B) {
	benchRing(b, 8, 64<<10)
}

// BenchmarkWorldRun1024 builds a 1024-rank world and runs one eager ring
// exchange — the world-construction plus event-dispatch cost that
// dominates at scale. Pre-refactor this allocated over a million peer
// channels (with 64 prefilled credit tokens each) before the first
// message moved.
func BenchmarkWorldRun1024(b *testing.B) {
	benchRing(b, 1024, 4<<10)
}

func benchRing(b *testing.B, ranks, bytes int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{
			Machine: machine.Opteron(), Ranks: ranks,
			Allocator: AllocHuge, LazyDereg: true, HugeATT: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(r *Rank) error {
			sva, err := r.Malloc(uint64(bytes))
			if err != nil {
				return err
			}
			rva, err := r.Malloc(uint64(bytes))
			if err != nil {
				return err
			}
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() - 1 + r.Size()) % r.Size()
			for it := 0; it < 4; it++ {
				if _, err := r.Sendrecv(right, it, sva, bytes, left, it, rva, bytes); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlltoallvPieces8 runs two AlltoallvPieces per iteration
// across 8 ranks: one whose piece lists (2 × 2 KiB per peer) take the
// single-work-request gather branch and one whose lists (32 × 16 B per
// peer) take the pack branch. Its allocs/op is the yardstick of the
// non-contiguous send path, whose payload bytes move frame to frame or
// through pooled eager messages.
func BenchmarkAlltoallvPieces8(b *testing.B) {
	const ranks = 8
	b.ReportAllocs()
	w, err := NewWorld(Config{
		Machine: machine.Opteron(), Ranks: ranks,
		Allocator: AllocHuge, LazyDereg: true, HugeATT: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	gather := make([]*piecesBufs, ranks)
	pack := make([]*piecesBufs, ranks)
	body := func(n int) func(r *Rank) error {
		return func(r *Rank) error {
			var err error
			if gather[r.ID()] == nil {
				if gather[r.ID()], err = newPiecesBufs(r, 2, 2048); err != nil {
					return err
				}
				if pack[r.ID()], err = newPiecesBufs(r, 32, 16); err != nil {
					return err
				}
			}
			for range n {
				if err := gather[r.ID()].exchange(r); err != nil {
					return err
				}
				if err := pack[r.ID()].exchange(r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// A warm-up round sets up the buffers, registrations and eager pool
	// and checks that each list takes the branch it is meant to.
	g0 := gatheredBytes(w)
	if err := w.Run(body(1)); err != nil {
		b.Fatal(err)
	}
	if got, want := gatheredBytes(w)-g0, int64(ranks)*gather[0].gatherOnce; got != want {
		b.Fatalf("one round gathered %d bytes, want %d from the gather lists alone", got, want)
	}
	b.ResetTimer()
	if err := w.Run(body(b.N)); err != nil {
		b.Fatal(err)
	}
}
