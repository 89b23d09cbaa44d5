package memmodel

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/tlb"
	"repro/internal/vm"
)

func opteronCPU() *machine.CPU {
	cpu := machine.Opteron().CPU
	return &cpu
}

func region(class vm.PageClass, bytes uint64) Region {
	base := vm.VA(0x2000_0000_0000)
	if class == vm.Huge {
		base = vm.VA(0x4000_0000_0000)
	}
	return Region{VA: base, Bytes: bytes, Class: class}
}

func TestSeqScanHugepagesReduceMissesAndTime(t *testing.T) {
	cpu := opteronCPU()
	// 64 MiB scanned: far beyond both TLB reaches, so per-page cold
	// misses dominate: 16384 small pages vs 32 hugepages per pass.
	small := SeqScan{Passes: 4}.Apply(cpu, tlb.New(cpu), region(vm.Small, 64<<20))
	huge := SeqScan{Passes: 4}.Apply(cpu, tlb.New(cpu), region(vm.Huge, 64<<20))
	if huge.TLBMisses*100 > small.TLBMisses {
		t.Fatalf("hugepage seq misses %d should be ~1/512 of small %d", huge.TLBMisses, small.TLBMisses)
	}
	if huge.Ticks >= small.Ticks {
		t.Fatalf("hugepage scan %v not faster than small-page scan %v", huge.Ticks, small.Ticks)
	}
	improvement := 1 - float64(huge.Ticks)/float64(small.Ticks)
	if improvement < 0.01 || improvement > 0.30 {
		t.Fatalf("seq-scan compute improvement %.1f%% outside the plausible band", improvement*100)
	}
}

func TestScatteredTablesHugepageBlowup(t *testing.T) {
	// The Section 5.2 effect: EP's scattered small tables fit the 544
	// 4 KiB entries but thrash the 8 hugepage entries — misses increase
	// "up to eight times", so require >= 4x here.
	cpu := opteronCPU()
	pat := ScatteredTables{NumTables: 48, TableBytes: 2048, Count: 400_000}
	small := pat.Apply(cpu, tlb.New(cpu), region(vm.Small, 48*machine.HugePageSize))
	huge := pat.Apply(cpu, tlb.New(cpu), region(vm.Huge, 48*machine.HugePageSize))
	if small.TLBMisses == 0 {
		t.Fatal("expected some cold misses on small pages")
	}
	ratio := float64(huge.TLBMisses) / float64(small.TLBMisses)
	if ratio < 4 {
		t.Fatalf("hugepage miss blowup %.1fx, want >= 4x", ratio)
	}
	t.Logf("scattered tables: small=%d huge=%d (%.1fx)", small.TLBMisses, huge.TLBMisses, ratio)
}

func TestRandomWorkingSetVsReach(t *testing.T) {
	cpu := opteronCPU()
	// Working set inside the 4K reach (544*4K ~ 2.1 MiB): warm misses ~ 0.
	d := tlb.New(cpu)
	fit := Random{Count: 200_000, Seed: 1}.Apply(cpu, d, region(vm.Small, 1<<20))
	if rate := float64(fit.TLBMisses) / float64(fit.Accesses); rate > 0.05 {
		t.Fatalf("in-reach random miss rate %.3f, want ~0", rate)
	}
	// Working set 64 MiB >> reach: high miss rate.
	d2 := tlb.New(cpu)
	spill := Random{Count: 200_000, Seed: 1}.Apply(cpu, d2, region(vm.Small, 64<<20))
	if rate := float64(spill.TLBMisses) / float64(spill.Accesses); rate < 0.5 {
		t.Fatalf("over-reach random miss rate %.3f, want > 0.5", rate)
	}
	// The same 64 MiB in hugepages fits in 32 entries... but the Opteron
	// has only 8, so it still misses — yet far less than 4K.
	d3 := tlb.New(cpu)
	hspill := Random{Count: 200_000, Seed: 1}.Apply(cpu, d3, region(vm.Huge, 64<<20))
	if hspill.TLBMisses >= spill.TLBMisses {
		t.Fatal("hugepages should cut random-access misses on a 64MiB set")
	}
}

func TestStridedPrefetchCutoff(t *testing.T) {
	cpu := opteronCPU()
	short := Strided{Stride: 256, Passes: 2}.Apply(cpu, tlb.New(cpu), region(vm.Small, 8<<20))
	long := Strided{Stride: 4096, Passes: 2}.Apply(cpu, tlb.New(cpu), region(vm.Small, 8<<20))
	if short.Hidden == 0 {
		t.Fatal("short stride should get prefetch help")
	}
	if long.Hidden != 0 {
		t.Fatal("page-sized stride should get no prefetch help")
	}
}

func TestZeroInputsAreSafe(t *testing.T) {
	cpu := opteronCPU()
	d := tlb.New(cpu)
	for _, p := range []Pattern{SeqScan{}, Strided{}, Random{}, ScatteredTables{}} {
		res := p.Apply(cpu, d, region(vm.Small, 1<<20))
		if res.Accesses != 0 || res.Ticks != 0 {
			t.Fatalf("%T: zero pattern produced work", p)
		}
	}
}

func TestResultsAreDeterministic(t *testing.T) {
	cpu := opteronCPU()
	a := Random{Count: 100_000, Seed: 9}.Apply(cpu, tlb.New(cpu), region(vm.Huge, 32<<20))
	b := Random{Count: 100_000, Seed: 9}.Apply(cpu, tlb.New(cpu), region(vm.Huge, 32<<20))
	if a != b {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

func TestDTLBCountersAdvance(t *testing.T) {
	cpu := opteronCPU()
	d := tlb.New(cpu)
	SeqScan{Passes: 1}.Apply(cpu, d, region(vm.Huge, 16<<20))
	if d.Large.Stats().Accesses() == 0 {
		t.Fatal("pattern did not drive the hugepage TLB file")
	}
	if d.Small.Stats().Accesses() != 0 {
		t.Fatal("hugepage pattern touched the 4K file")
	}
}

// TestResultsPinned pins the exact Result of each pattern on each
// machine and page class. The four patterns run in turn on one DTLB per
// (machine, class), so the DTLB state one leaves behind is part of what
// the next one sees. Every stream but the hugepage scan and strided
// walk is longer than sampleCap, so the scaling is pinned too; the
// small-page scan fits the Opteron's 4K file, so its warm passes hit.
func TestResultsPinned(t *testing.T) {
	pats := []struct {
		p     Pattern
		bytes uint64
	}{
		{SeqScan{Passes: 160}, 2 << 20},
		{Strided{Stride: 384, Passes: 2}, 8 << 20},
		{Random{Count: 100_000, Seed: 7}, 48 << 20},
		{ScatteredTables{NumTables: 44, TableBytes: 1536, Count: 50_000}, 44 * machine.HugePageSize},
	}
	want := map[string][]Result{
		"amd-opteron-infinihost-pcie/4K": {
			{5242880, 1280, 2949120, 69260800},
			{43690, 3413, 16386, 865548},
			{100000, 95526, 0, 5465780},
			{50000, 65, 43750, 306637},
		},
		"amd-opteron-infinihost-pcie/2M": {
			{5242880, 1, 3145344, 64758334},
			{43690, 3, 26197, 540048},
			{100000, 66326, 0, 4589780},
			{50000, 49998, 43750, 1804627},
		},
		"intel-xeon-infinihost-pcix/4K": {
			{5242880, 81920, 2211840, 102338560},
			{43690, 4095, 12289, 1143723},
			{100000, 99456, 0, 6779328},
			{50000, 50000, 43750, 2251562},
		},
		"intel-xeon-infinihost-pcix/2M": {
			{5242880, 1, 2359008, 95362478},
			{43690, 3, 19647, 795080},
			{100000, 66326, 0, 5520388},
			{50000, 49998, 43750, 2251486},
		},
		"ibm-systemp-ehca-gx/4K": {
			{5242880, 1280, 3440640, 75952640},
			{43690, 3413, 19117, 1060075},
			{100000, 95806, 0, 7423852},
			{50000, 50000, 43750, 2498437},
		},
		"ibm-systemp-ehca-gx/2M": {
			{5242880, 1, 3669568, 69088314},
			{43690, 3, 30563, 576336},
			{100000, 33386, 0, 4802212},
			{50000, 49989, 43750, 2497975},
		},
	}
	for _, m := range machine.All() {
		for _, class := range []vm.PageClass{vm.Small, vm.Huge} {
			key := m.Name + "/" + class.String()
			d := tlb.New(&m.CPU)
			for i, pt := range pats {
				got := pt.p.Apply(&m.CPU, d, region(class, pt.bytes))
				if got != want[key][i] {
					t.Errorf("%s %T: %+v, want %+v", key, pt.p, got, want[key][i])
				}
			}
		}
	}
}
