package mpi

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

func TestAllgatherRing(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		for _, block := range []int{512, 64 << 10} { // eager and rendezvous
			w := mustWorld(t, defaultCfg(p))
			err := w.Run(func(r *Rank) error {
				sva, _ := r.Malloc(uint64(block))
				rva, _ := r.Malloc(uint64(p * block))
				_ = r.WriteBytes(sva, bytes.Repeat([]byte{byte(r.ID() + 1)}, block))
				if err := r.Allgather(sva, rva, block); err != nil {
					return err
				}
				for src := 0; src < p; src++ {
					got := make([]byte, block)
					_ = r.ReadBytes(rva+VAof(src*block), got)
					for _, b := range got {
						if b != byte(src+1) {
							return fmt.Errorf("rank %d: block %d corrupted (%d)", r.ID(), src, b)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d block=%d: %v", p, block, err)
			}
		}
	}
}

// VAof converts a byte offset for test readability.
func VAof(off int) vm.VA { return vm.VA(off) }

func TestGatherScatterRoundTrip(t *testing.T) {
	const p, block = 4, 4096
	w := mustWorld(t, defaultCfg(p))
	err := w.Run(func(r *Rank) error {
		const root = 2
		sva, _ := r.Malloc(uint64(p * block))
		rva, _ := r.Malloc(uint64(p * block))
		// Every rank contributes a signed block.
		_ = r.WriteBytes(sva, bytes.Repeat([]byte{byte(16 + r.ID())}, block))
		if err := r.Gather(root, sva, rva, block); err != nil {
			return err
		}
		if r.ID() == root {
			for src := 0; src < p; src++ {
				got := make([]byte, block)
				_ = r.ReadBytes(rva+VAof(src*block), got)
				for _, b := range got {
					if b != byte(16+src) {
						return fmt.Errorf("gather: block %d corrupted", src)
					}
				}
			}
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		// Scatter back from the root: every rank must recover its block.
		out, _ := r.Malloc(uint64(block))
		if err := r.Scatter(root, rva, out, block); err != nil {
			return err
		}
		got := make([]byte, block)
		_ = r.ReadBytes(out, got)
		for _, b := range got {
			if b != byte(16+r.ID()) {
				return fmt.Errorf("scatter: rank %d got %d", r.ID(), b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanPrefixSums(t *testing.T) {
	const p, count = 6, 33
	w := mustWorld(t, defaultCfg(p))
	err := w.Run(func(r *Rank) error {
		va, _ := r.Malloc(count * 8)
		xs := make([]float64, count)
		for i := range xs {
			xs[i] = float64((r.ID() + 1) * (i + 1))
		}
		if err := r.WriteF64(va, xs); err != nil {
			return err
		}
		if err := r.ScanF64(va, count, Sum); err != nil {
			return err
		}
		got := make([]float64, count)
		if err := r.ReadF64(va, got); err != nil {
			return err
		}
		// Inclusive prefix over ranks 0..id of (rank+1)*(i+1).
		pref := float64((r.ID() + 1) * (r.ID() + 2) / 2)
		for i := range got {
			want := pref * float64(i+1)
			if math.Abs(got[i]-want) > 1e-9 {
				return fmt.Errorf("rank %d elem %d: got %g want %g", r.ID(), i, got[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Allgather equals Gather-at-root + Bcast for random block
// payloads (reference-implementation equivalence).
func TestQuickAllgatherEquivalence(t *testing.T) {
	const p = 4
	f := func(seed uint8, blockRaw uint16) bool {
		block := int(blockRaw)%2048 + 8
		w := mustWorld(t, defaultCfg(p))
		ok := true
		err := w.Run(func(r *Rank) error {
			sva, _ := r.Malloc(uint64(block))
			agVA, _ := r.Malloc(uint64(p * block))
			refVA, _ := r.Malloc(uint64(p * block))
			payload := make([]byte, block)
			for i := range payload {
				payload[i] = seed + byte(r.ID()*31+i)
			}
			_ = r.WriteBytes(sva, payload)
			if err := r.Allgather(sva, agVA, block); err != nil {
				return err
			}
			if err := r.Gather(0, sva, refVA, block); err != nil {
				return err
			}
			if err := r.Bcast(0, refVA, p*block); err != nil {
				return err
			}
			a := make([]byte, p*block)
			b := make([]byte, p*block)
			_ = r.ReadBytes(agVA, a)
			_ = r.ReadBytes(refVA, b)
			if !bytes.Equal(a, b) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
