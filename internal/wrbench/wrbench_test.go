package wrbench

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/simtime"
)

func sysp() node.Config { return node.Config{Machine: machine.SystemP()} }

func at(rs []Result, sges, size, off int) Result {
	for _, r := range rs {
		if r.SGEs == sges && r.SGESize == size && r.Offset == off {
			return r
		}
	}
	panic("combination not measured")
}

// Figure 3's x axis (1 B to 4 KiB, doubling) and Figure 4's (0 to 256 B
// in steps of 8).
var (
	fig3SGESizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	fig4Offsets  = func() []int {
		var o []int
		for off := 0; off <= 256; off += 8 {
			o = append(o, off)
		}
		return o
	}()
)

func TestFig3PostCostBand(t *testing.T) {
	// Paper: post time "varies between 450-650 TBR ticks" and is
	// "approximately constant for small and for large messages".
	rs, err := SGESweep(sysp(), []int{1, 2, 4, 8}, fig3SGESizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.PostTicks < 450 || r.PostTicks > 650 {
			t.Errorf("post(%d sges, %dB) = %d ticks, want 450-650", r.SGEs, r.SGESize, r.PostTicks)
		}
	}
	// Constant across sizes for fixed SGE count.
	if at(rs, 1, 1, 64).PostTicks != at(rs, 1, 4096, 64).PostTicks {
		t.Error("post cost should not depend on message size")
	}
}

func TestFig3OneTwentyEightSGEsIsThreeX(t *testing.T) {
	// Paper: "the time consumption by using 128 SGEs is only three times
	// higher than with one SGE" (post operation).
	rs, err := SGESweep(sysp(), []int{1, 128}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(at(rs, 128, 64, 64).PostTicks) / float64(at(rs, 1, 64, 64).PostTicks)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("post(128)/post(1) = %.2f, want ~3", ratio)
	}
}

func TestFig3FourSGEsCheapAggregation(t *testing.T) {
	// Paper: "up to 128 Byte, the sending of 4 SGEs with same sizes - the
	// overall message size is 4 times higher than with one SGE - is only
	// 14 % more costly".
	rs, err := SGESweep(sysp(), []int{1, 4}, []int{8, 16, 32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{8, 16, 32, 64, 128} {
		one := at(rs, 1, size, 64).Total()
		four := at(rs, 4, size, 64).Total()
		extra := float64(four)/float64(one) - 1
		t.Logf("size %3dB: 1 SGE %v, 4 SGEs %v (+%.1f%%)", size, one, four, extra*100)
		if extra < 0.02 || extra > 0.25 {
			t.Errorf("size %d: 4-SGE overhead %.1f%%, want ~14%%", size, extra*100)
		}
	}
}

func TestFig3OneSGEFlatThenLinear(t *testing.T) {
	// Paper: "The outlay for 1 SGE is relatively constant up to 512 Bytes
	// and then grows linearly with buffer size."
	rs, err := SGESweep(sysp(), []int{1}, fig3SGESizes)
	if err != nil {
		t.Fatal(err)
	}
	t1 := at(rs, 1, 1, 64).Total()
	t512 := at(rs, 1, 512, 64).Total()
	if g := float64(t512)/float64(t1) - 1; g > 0.30 {
		t.Errorf("1B->512B grew %.0f%%, want nearly flat", g*100)
	}
	// Beyond 512 B the size term dominates: 4 KiB must clearly exceed 1 KiB.
	t1k := at(rs, 1, 1024, 64).Total()
	t4k := at(rs, 1, 4096, 64).Total()
	if float64(t4k) < 1.5*float64(t1k) {
		t.Errorf("4KiB (%d) vs 1KiB (%d): expected clear linear growth", t4k, t1k)
	}
}

func TestFig4OffsetEffect(t *testing.T) {
	// Paper: "Between the offset range 1 to 128 Byte we see that the time
	// consumption ... differs up to 8 percent", optimised "e.g. at offset
	// 64".
	sizes := []int{8, 16, 32, 64}
	rs, err := OffsetSweep(sysp(), fig4Offsets, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range sizes {
		var lo, hi simtime.Ticks
		var loOff int
		first := true
		for _, r := range rs {
			if r.SGESize != size {
				continue
			}
			tt := r.Total()
			if first || tt < lo {
				lo, loOff = tt, r.Offset
			}
			if first || tt > hi {
				hi = tt
			}
			first = false
		}
		swing := float64(hi-lo) / float64(lo)
		t.Logf("size %2dB: min %v at offset %d, max %v (swing %.1f%%)", size, lo, loOff, hi, swing*100)
		if swing < 0.01 || swing > 0.10 {
			t.Errorf("size %d: offset swing %.1f%%, want ~2-8%%", size, swing*100)
		}
		if loOff != 64 {
			t.Errorf("size %d: fastest offset %d, want 64", size, loOff)
		}
	}
}

func TestParameterValidation(t *testing.T) {
	rg, err := newRig(sysp(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rg.measure(64, 4096, 0); err == nil {
		t.Fatal("oversized parameters accepted")
	}
}
