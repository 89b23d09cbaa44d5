package imb

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/node"
)

func TestFig5ShapesOnOpteron(t *testing.T) {
	sizes := []int{64 << 10, 1 << 20, 4 << 20, 16 << 20}
	curves, err := RunFig5(mpi.Config{Machine: machine.Opteron()}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	last := len(sizes) - 1
	sp := curves["small pages"]
	hp := curves["hugepages"]
	spl := curves["small pages lazy deregistration"]
	hpl := curves["hugepages lazy deregistration"]
	for _, c := range [][]SendRecvResult{sp, hp, spl, hpl} {
		for i, row := range c {
			t.Logf("size=%8d  bw=%7.1f MB/s reg=%v", row.Bytes, row.BandwidthMBs, row.RegTicks)
			if row.BandwidthMBs <= 0 {
				t.Fatalf("row %d: non-positive bandwidth", i)
			}
		}
	}
	// Paper item 1: without lazy dereg, hugepages are enormously better,
	// and hugepage curves approach max bandwidth (~1750 MB/s) at >= 4 MiB.
	if hp[last].BandwidthMBs < 1.3*sp[last].BandwidthMBs {
		t.Errorf("no-lazy: hugepages %0.f MB/s should beat small pages %0.f MB/s clearly",
			hp[last].BandwidthMBs, sp[last].BandwidthMBs)
	}
	if hp[last].BandwidthMBs < 1600 || hp[last].BandwidthMBs > 1950 {
		t.Errorf("hugepages no-lazy at 16MiB = %.0f MB/s, want ~1750", hp[last].BandwidthMBs)
	}
	// Registration time with hugepages ~1% of small pages.
	if frac := float64(hp[last].RegTicks) / float64(sp[last].RegTicks); frac > 0.05 {
		t.Errorf("huge/small reg ticks = %.3f, want <= 0.05", frac)
	}
	// Paper item 2: with lazy dereg the two page sizes tie on Opteron.
	for i := range sizes {
		a, b := spl[i].BandwidthMBs, hpl[i].BandwidthMBs
		diff := (b - a) / a
		if diff < -0.03 || diff > 0.03 {
			t.Errorf("lazy curves differ %.1f%% at %d bytes (paper: same numbers)", diff*100, sizes[i])
		}
	}
	// Lazy curves must dominate their no-lazy counterparts.
	if spl[last].BandwidthMBs <= sp[last].BandwidthMBs {
		t.Error("lazy dereg should beat per-message registration on small pages")
	}
}

func TestXeonATTEffect(t *testing.T) {
	// E4: on the Xeon/PCI-X system with lazy dereg and hugepage buffers,
	// sending 2 MiB translations to the adapter (HugeATT) buys ~6%
	// bandwidth at large sizes versus the unpatched driver.
	sizes := []int{4 << 20, 8 << 20}
	run := func(patched bool) []SendRecvResult {
		res, _, err := SendRecv(mpi.Config{
			Machine:   machine.Xeon(),
			Ranks:     2,
			Allocator: mpi.AllocHuge,
			LazyDereg: true,
			HugeATT:   patched,
		}, sizes)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unpatched := run(false)
	patched := run(true)
	for i := range sizes {
		gain := patched[i].BandwidthMBs/unpatched[i].BandwidthMBs - 1
		t.Logf("size=%d unpatched=%.0f patched=%.0f gain=%.1f%% (missrate %.2f -> %.2f)",
			sizes[i], unpatched[i].BandwidthMBs, patched[i].BandwidthMBs, gain*100,
			unpatched[i].ATTMissRate, patched[i].ATTMissRate)
		if gain < 0.02 || gain > 0.12 {
			t.Errorf("size %d: ATT patch gain %.1f%%, want ~6%%", sizes[i], gain*100)
		}
		if patched[i].ATTMissRate >= unpatched[i].ATTMissRate {
			t.Error("patch should reduce ATT miss rate")
		}
	}
}

func TestOpteronATTPatchChangesNothing(t *testing.T) {
	// Paper: on the Opteron/PCIe system lazy-dereg bandwidth was the same
	// with and without hugepage ATT entries ("This may be due to other
	// bottlenecks in the system").
	sizes := []int{4 << 20}
	run := func(patched bool) float64 {
		res, _, err := SendRecv(mpi.Config{
			Machine:   machine.Opteron(),
			Ranks:     2,
			Allocator: mpi.AllocHuge,
			LazyDereg: true,
			HugeATT:   patched,
		}, sizes)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].BandwidthMBs
	}
	a, b := run(false), run(true)
	if diff := (b - a) / a; diff > 0.03 || diff < -0.03 {
		t.Errorf("Opteron ATT patch changed bandwidth by %.1f%%, want ~0", diff*100)
	}
}

func TestRegistrationSweep(t *testing.T) {
	sizes := []uint64{2 << 20, 8 << 20, 32 << 20}
	rows, err := RegistrationSweep(node.Config{Machine: machine.Opteron()}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Logf("size=%d small=%v huge=%v frac=%.3f", row.Bytes, row.SmallReg, row.HugeReg, row.HugeFrac)
		if row.HugeFrac > 0.05 {
			t.Errorf("size %d: huge registration %.1f%% of small, want ~1%%", row.Bytes, row.HugeFrac*100)
		}
		if row.SmallMTTs != row.HugeMTTs*512 {
			t.Errorf("size %d: MTT counts %d vs %d not 512x apart", row.Bytes, row.SmallMTTs, row.HugeMTTs)
		}
	}
	// Fraction should shrink as buffers grow (fixed syscall amortises).
	if rows[0].HugeFrac < rows[len(rows)-1].HugeFrac {
		t.Error("huge/small fraction should not grow with size")
	}
}

func TestDefaultSizesLadder(t *testing.T) {
	s := DefaultSizes()
	if s[0] != 4<<10 || s[len(s)-1] != 16<<20 {
		t.Fatalf("ladder endpoints wrong: %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] != 2*s[i-1] {
			t.Fatal("ladder must double")
		}
	}
}

func TestStaticPolicyMatchesNoEngineFig5(t *testing.T) {
	m := machine.Opteron()
	sizes := []int{4096, 262144, 1 << 20}
	bare, err := RunFig5(mpi.Config{Machine: m}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	static, err := RunFig5(mpi.Config{Machine: m, Policy: "static"}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, static) {
		t.Fatalf("static-policy Figure 5 diverged from the no-engine run:\n%v\nvs\n%v", bare, static)
	}
}

// TestFig5CurvesAreTheStrategyTable pins that Figure 5's four curves are
// the strategy table's first four entries and nothing else: each curve
// equals a plain SendRecv under that strategy applied over the same
// configuration.
func TestFig5CurvesAreTheStrategyTable(t *testing.T) {
	cfg := mpi.Config{Machine: machine.Opteron()}
	sizes := []int{64 << 10, 1 << 20}
	curves, err := RunFig5(cfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Fig5Curves {
		st, ok := mpi.StrategyByName(c.Strategy)
		if !ok {
			t.Fatalf("curve %q names unknown strategy %q", c.Label, c.Strategy)
		}
		want, _, err := SendRecv(st.Apply(cfg), sizes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(curves[c.Label], want) {
			t.Errorf("%s: Figure 5 curve %v != SendRecv under %s %v", c.Label, curves[c.Label], c.Strategy, want)
		}
	}
}

func TestRampMatchesNaiveFill(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4<<20 + 3} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i)
		}
		if got := ramp(n); !bytes.Equal(got, want) {
			t.Errorf("ramp(%d) differs from the byte(i) loop", n)
		}
	}
}
