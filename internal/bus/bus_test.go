package bus

import (
	"testing"

	"repro/internal/machine"
)

func model() *Model { return New(machine.SystemP().Bus) }

func TestDMACostMonotonicInSize(t *testing.T) {
	m := model()
	prev := m.DMACost(64, 1)
	for n := 2; n <= 4096; n *= 2 {
		c := m.DMACost(64, n)
		if c < prev {
			t.Fatalf("cost decreased from %d to %d at n=%d", prev, c, n)
		}
		prev = c
	}
}

func TestOffset64BeatsOffset0(t *testing.T) {
	// Figure 4: the sweet spot is at offset 64 — the first-line
	// contention penalty applies below one cache line.
	m := model()
	for _, size := range []int{8, 16, 32, 64} {
		c0 := m.DMACost(0, size)
		c64 := m.DMACost(64, size)
		if c64 >= c0 {
			t.Errorf("size %d: offset64 cost %d should beat offset0 cost %d", size, c64, c0)
		}
	}
}

func TestOffsetSwingIsBounded(t *testing.T) {
	// The paper reports the offset effect is "up to 8 percent" of the
	// whole work-request duration. The DMA-only swing can be larger, but
	// must stay within a small factor, not orders of magnitude.
	m := model()
	for _, size := range []int{8, 16, 32, 64} {
		lo, hi := m.DMACost(64, size), m.DMACost(64, size)
		for off := uint64(0); off <= 256; off++ {
			c := m.DMACost(off, size)
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if float64(hi) > 2.0*float64(lo) {
			t.Errorf("size %d: offset swing too large: lo=%d hi=%d", size, lo, hi)
		}
		if hi == lo {
			t.Errorf("size %d: no offset effect at all", size)
		}
	}
}

func TestUnalignedStartPenalty(t *testing.T) {
	m := model()
	aligned := m.DMACost(128, 8)
	unaligned := m.DMACost(129, 8)
	if unaligned <= aligned {
		t.Fatalf("byte-misaligned start should cost more: %d vs %d", unaligned, aligned)
	}
}

func TestExtraCacheLineCost(t *testing.T) {
	m := model()
	// 64 bytes at offset 64 = 1 line; at offset 96 = 2 lines.
	one := m.DMACost(64, 64)
	two := m.DMACost(96, 64)
	if two <= one {
		t.Fatalf("line-straddling read should cost more: %d vs %d", two, one)
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	m := model()
	if m.DMACost(0, 0) != 0 || m.DMACost(0, -5) != 0 {
		t.Fatal("non-positive DMA sizes must cost zero")
	}
}
