package nas

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// TestISRejectsNonPowerOfTwoMaxKey: IS draws keys with a mask, so a
// MaxKey that is not a power of two is refused before any key is drawn,
// and a power of two still runs.
func TestISRejectsNonPowerOfTwoMaxKey(t *testing.T) {
	for _, maxKey := range []int{0, -8, 3000, 1<<16 + 1, 3 << 10} {
		k := &IS{KeysPerRank: 1024, Iters: 1, MaxKey: maxKey, BucketTouches: 100}
		_, err := RunKernel(lazyRun(2, mpi.AllocLibc), k)
		if err == nil || !strings.Contains(err.Error(), "not a power of two") {
			t.Errorf("MaxKey=%d: err = %v, want a power-of-two error", maxKey, err)
		}
	}
	k := &IS{KeysPerRank: 1024, Iters: 1, MaxKey: 1 << 10, BucketTouches: 100}
	if _, err := RunKernel(lazyRun(2, mpi.AllocLibc), k); err != nil {
		t.Fatalf("MaxKey=1024: %v", err)
	}
}

// TestRadixSortMatchesSlicesSort checks radixSort against slices.Sort on
// seeded random keys and on the edge-case shapes, for the key ranges IS
// runs at (2^16 in testKernels, 2^20 by default), the widest uint32
// range (three passes, so the result ends in the scratch buffer), and
// ranges that are not powers of two.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	for _, maxKey := range []int{1 << 16, 1 << 20, 1<<32 - 1, 1000003, 3000} {
		g := &isRand{s: uint64(maxKey)}
		random := make([]uint32, 50000)
		for i := range random {
			random[i] = uint32(g.next() % uint64(maxKey))
		}
		top := uint32(maxKey - 1)
		ascending := make([]uint32, 5000)
		for i := range ascending {
			ascending[i] = uint32(uint64(i) * uint64(top) / uint64(len(ascending)-1))
		}
		descending := slices.Clone(ascending)
		slices.Reverse(descending)
		cases := []struct {
			name string
			keys []uint32
		}{
			{"random", random},
			{"empty", []uint32{}},
			{"one", []uint32{top}},
			{"all-equal", slices.Repeat([]uint32{top / 3}, 4097)},
			{"sorted", ascending},
			{"reversed", descending},
			{"max-and-zeros", []uint32{top, 0, top, 0, 0}},
		}
		for _, c := range cases {
			keys := c.keys
			t.Run(fmt.Sprintf("%d/%s", maxKey, c.name), func(t *testing.T) {
				want := slices.Clone(keys)
				slices.Sort(want)
				got := slices.Clone(keys)
				radixSort(got, make([]uint32, len(got)), maxKey)
				if !slices.Equal(got, want) {
					t.Fatalf("radixSort differs from slices.Sort (first keys %v, want %v)",
						got[:min(len(got), 8)], want[:min(len(want), 8)])
				}
			})
		}
	}
}
