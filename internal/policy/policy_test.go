package policy

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// rig is a minimal engine fixture over a real phys/vm/tlb stack.
type rig struct {
	m    *machine.Machine
	mem  *phys.Memory
	as   *vm.AddressSpace
	dtlb *tlb.DTLB
	eng  *Engine
}

func newRig(t *testing.T, kind Kind, lazyDefault bool) *rig {
	t.Helper()
	m := machine.Opteron()
	mem := phys.NewMemory(m)
	as := vm.New(mem)
	d := tlb.New(&m.CPU)
	eng, err := New(Config{
		Kind: kind, Machine: m, LazyDefault: lazyDefault,
		AS: as, DTLB: d, Mem: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{m: m, mem: mem, as: as, dtlb: d, eng: eng}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Static, Threshold, Adaptive} {
		got, err := ParseKind(string(k))
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k, got, err)
		}
	}
	for _, bad := range []string{"", "greedy", "STATIC", "adaptive "} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
		}
	}
}

func TestNewRejectsMissingWiring(t *testing.T) {
	if _, err := New(Config{Kind: Static}); err == nil {
		t.Fatal("engine built without Machine/AS/DTLB/Mem")
	}
	if _, err := New(Config{Kind: "bogus"}); err == nil {
		t.Fatal("engine built with unknown kind")
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	if s := e.Stats(); s != (Stats{}) {
		t.Fatalf("nil engine stats = %+v", s)
	}
	if !e.PlaceHuge(1 << 22) {
		t.Fatal("nil engine must keep the huge prior")
	}
	e.Placed(0, 0, true)
	e.Freed(0)
	e.ObservePattern(memmodel.SeqScan{}, memmodel.Region{}, memmodel.Result{})
	if e.Tick(1<<30) != 0 {
		t.Fatal("nil engine tick cost")
	}
	// DecideGather on a nil engine still applies the cost estimates.
	if !e.DecideGather(4, 1<<16, 100, 200) {
		t.Fatal("nil engine must pick the cheaper gather")
	}
	if e.DecideGather(4, 1<<16, 300, 200) {
		t.Fatal("nil engine must pick the cheaper pack")
	}
}

func TestStaticKeepsDefaults(t *testing.T) {
	r := newRig(t, Static, true)
	if !r.eng.PlaceHuge(1 << 22) {
		t.Fatal("static must keep the huge prior")
	}
	if !r.eng.DecideLazy(0, 1<<20, true, 1<<20, 0) {
		t.Fatal("static must keep the lazy default even over budget")
	}
	if r.eng.DecideLazy(0, 1<<20, false, 0, 0) {
		t.Fatal("static must keep the eager default")
	}
	s := r.eng.Stats()
	if s.CacheLazy != 1 || s.CacheEager != 1 {
		t.Fatalf("cache counters = %+v", s)
	}
}

func TestPlaceHugeVetoesOnPoolExhaustion(t *testing.T) {
	for _, kind := range []Kind{Threshold, Adaptive} {
		r := newRig(t, kind, true)
		if !r.eng.PlaceHuge(1 << 22) {
			t.Fatalf("%s: veto with a full pool", kind)
		}
		if err := r.mem.Reserve(r.mem.HugeAvailable()); err != nil {
			t.Fatal(err)
		}
		if r.eng.PlaceHuge(1 << 22) {
			t.Fatalf("%s: no veto with an empty pool", kind)
		}
	}
	// Static ignores the pool: the library's own fallback handles it.
	r := newRig(t, Static, true)
	if err := r.mem.Reserve(r.mem.HugeAvailable()); err != nil {
		t.Fatal(err)
	}
	if !r.eng.PlaceHuge(1 << 22) {
		t.Fatal("static must not consult the pool")
	}
}

func TestPlaceHugeVetoesOnTLBPressure(t *testing.T) {
	for _, kind := range []Kind{Threshold, Adaptive} {
		r := newRig(t, kind, true)
		// Thrash the 2 MiB file (every access a distinct vpn) while the
		// 4 KiB file re-hits one page.
		for i := 0; i < 2*minSamples; i++ {
			r.dtlb.Access(vm.VA(uint64(i)*machine.HugePageSize), vm.Huge)
		}
		for i := 0; i < 64*minSamples; i++ {
			r.dtlb.Access(0, vm.Small)
		}
		if r.eng.PlaceHuge(1 << 22) {
			t.Fatalf("%s: no veto under hugepage-TLB thrash", kind)
		}
	}
}

func TestThresholdDecideLazyBudgetRules(t *testing.T) {
	r := newRig(t, Threshold, true)
	// Over the pinning budget: eager regardless of the default.
	if r.eng.DecideLazy(0, 4<<20, true, 2<<20, 0) {
		t.Fatal("over-budget registration left cached")
	}
	// Within budget: the default stands.
	if !r.eng.DecideLazy(0, 1<<20, true, 4<<20, 0) {
		t.Fatal("in-budget registration deregistered")
	}
	s := r.eng.Stats()
	if s.CacheEager != 1 || s.CacheLazy != 1 {
		t.Fatalf("cache counters = %+v", s)
	}
}

func TestThresholdDecideLazyMemlockRule(t *testing.T) {
	m := machine.Opteron()
	mem := phys.NewMemory(m)
	as := vm.New(mem)
	eng, err := New(Config{
		Kind: Threshold, Machine: m, LazyDefault: true,
		AS: as, DTLB: tlb.New(&m.CPU), Mem: mem,
		MemlockLimit: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.DecideLazy(0, 2<<20, true, 0, 0) {
		t.Fatal("registration above RLIMIT_MEMLOCK left cached")
	}
	if !eng.DecideLazy(0, 512<<10, true, 0, 0) {
		t.Fatal("registration under RLIMIT_MEMLOCK deregistered")
	}
}

func TestThresholdDecideLazyHitRateRule(t *testing.T) {
	m := machine.Opteron()
	mem := phys.NewMemory(m)
	as := vm.New(mem)
	hits, misses := int64(0), int64(0)
	eng, err := New(Config{
		Kind: Threshold, Machine: m, LazyDefault: true,
		AS: as, DTLB: tlb.New(&m.CPU), Mem: mem,
		CacheStats: func() (int64, int64) { return hits, misses },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Too small a sample: the default stands.
	hits, misses = 0, 10
	if !eng.DecideLazy(0, 1<<16, true, 0, 0) {
		t.Fatal("eager on an unproven cache")
	}
	// A real sample with a dismal hit rate: stop caching.
	hits, misses = 10, minSamples
	if eng.DecideLazy(0, 1<<16, true, 0, 0) {
		t.Fatal("lazy despite a cache that is not earning its pins")
	}
	// A healthy hit rate: cache.
	hits, misses = 10*minSamples, minSamples
	if !eng.DecideLazy(0, 1<<16, true, 0, 0) {
		t.Fatal("eager despite a healthy cache")
	}
}

func TestDecideGatherATTThrashRule(t *testing.T) {
	m := machine.Opteron()
	mem := phys.NewMemory(m)
	as := vm.New(mem)
	hits, misses := int64(0), int64(0)
	eng, err := New(Config{
		Kind: Threshold, Machine: m, LazyDefault: true,
		AS: as, DTLB: tlb.New(&m.CPU), Mem: mem,
		ATTStats: func() (int64, int64) { return hits, misses },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy ATT: the cost estimates decide.
	hits, misses = 10*minSamples, 0
	if !eng.DecideGather(8, 1<<16, 100, 200) {
		t.Fatal("pack despite cheaper gather and healthy ATT")
	}
	// Thrashing ATT: prefer the single-entry copy.
	hits, misses = 0, 2*minSamples
	if eng.DecideGather(8, 1<<16, 100, 200) {
		t.Fatal("gather despite ATT thrash")
	}
	s := eng.Stats()
	if s.SGEGather != 1 || s.SGEPack != 1 {
		t.Fatalf("sge counters = %+v", s)
	}
}

// scatter drives one window of scattered-table traffic through the real
// DTLB and the engine's counterfactual, the NAS IS shape: many tables,
// each in its own hugepage, where base pages win.
func scatter(r *rig, va vm.VA, size uint64) {
	p := memmodel.ScatteredTables{NumTables: 16, TableBytes: 4096, Count: 4 * minSamples}
	rg := memmodel.Region{VA: va, Bytes: size, Class: vm.Huge}
	real := p.Apply(&r.m.CPU, r.dtlb, rg)
	r.eng.ObservePattern(p, rg, real)
}

func TestAdaptiveDemotesLosingSite(t *testing.T) {
	r := newRig(t, Adaptive, true)
	const size = 16 * machine.HugePageSize
	va, err := r.as.MapHuge(size)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Placed(va, size, true)

	// Write a sentinel so the split provably moves no data.
	want := []byte("survives the thp split")
	if err := r.as.Write(va+12345, want); err != nil {
		t.Fatal(err)
	}

	hugeAvail := r.mem.HugeAvailable()
	scatter(r, va, size)
	cost := r.eng.Tick(windowTicks)
	if cost <= 0 {
		t.Fatalf("losing site not demoted (cost %d)", cost)
	}
	s := r.eng.Stats()
	if s.Windows != 1 || s.DemoteDecisions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.DemotedPages != 16 || s.DemotedBytes != 16*machine.HugePageSize {
		t.Fatalf("demoted %d pages / %d bytes, want the whole site", s.DemotedPages, s.DemotedBytes)
	}
	if want := simtime.Ticks(16) * r.eng.demotePageTicks(); cost != want || s.DemoteTicks != want {
		t.Fatalf("cost = %d, stats %d, want %d", cost, s.DemoteTicks, want)
	}

	// The mapping now translates at base-page granularity, in place.
	if _, class, err := r.as.Translate(va); err != nil || class != vm.Small {
		t.Fatalf("post-demotion translate: class %v, err %v", class, err)
	}
	got := make([]byte, len(want))
	if err := r.as.Read(va+12345, got); err != nil || string(got) != string(want) {
		t.Fatalf("data after split = %q (%v), want %q", got, err, want)
	}
	// The physical 2 MiB runs are kept by the split...
	if r.mem.HugeAvailable() != hugeAvail {
		t.Fatal("split returned hugepages to the pool early")
	}
	// ...and only return to the pool at unmap.
	if err := r.as.Unmap(va, size); err != nil {
		t.Fatal(err)
	}
	if r.mem.HugeAvailable() != hugeAvail+16 {
		t.Fatalf("pool after unmap = %d, want %d", r.mem.HugeAvailable(), hugeAvail+16)
	}

	// A demoted site stays demoted: further windows decide nothing new.
	r.eng.Tick(2 * windowTicks)
	if s := r.eng.Stats(); s.DemoteDecisions != 1 {
		t.Fatalf("re-demotion: %+v", s)
	}
}

func TestAdaptiveKeepsWinningSite(t *testing.T) {
	r := newRig(t, Adaptive, true)
	const size = 16 * machine.HugePageSize
	va, err := r.as.MapHuge(size)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Placed(va, size, true)

	// Sequential scans are the hugepage success story: the real
	// placement produces far fewer walks than the counterfactual.
	p := memmodel.SeqScan{Passes: 2}
	rg := memmodel.Region{VA: va, Bytes: size, Class: vm.Huge}
	real := p.Apply(&r.m.CPU, r.dtlb, rg)
	r.eng.ObservePattern(p, rg, real)

	if cost := r.eng.Tick(windowTicks); cost != 0 {
		t.Fatalf("winning site demoted (cost %d)", cost)
	}
	if _, class, err := r.as.Translate(va); err != nil || class != vm.Huge {
		t.Fatalf("translate: class %v, err %v", class, err)
	}
}

func TestAdaptiveSkipsPinnedPages(t *testing.T) {
	r := newRig(t, Adaptive, true)
	const size = 16 * machine.HugePageSize
	va, err := r.as.MapHuge(size)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Placed(va, size, true)
	// Pin the first hugepage, as a DMA registration would.
	if _, err := r.as.Pin(nil, va, machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	scatter(r, va, size)
	r.eng.Tick(windowTicks)
	if s := r.eng.Stats(); s.DemotedPages != 15 {
		t.Fatalf("demoted %d pages, want 15 (pinned page skipped)", s.DemotedPages)
	}
	// The pinned page keeps its stable 2 MiB translation.
	if _, class, err := r.as.Translate(va); err != nil || class != vm.Huge {
		t.Fatalf("pinned page translate: class %v, err %v", class, err)
	}
	if _, class, err := r.as.Translate(va + machine.HugePageSize); err != nil || class != vm.Small {
		t.Fatalf("unpinned page translate: class %v, err %v", class, err)
	}
}

func TestAdaptiveFreeDropsSite(t *testing.T) {
	r := newRig(t, Adaptive, true)
	const size = 16 * machine.HugePageSize
	va, err := r.as.MapHuge(size)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Placed(va, size, true)
	scatter(r, va, size)
	r.eng.Freed(va)
	if cost := r.eng.Tick(windowTicks); cost != 0 {
		t.Fatalf("freed site still demoted (cost %d)", cost)
	}
	if s := r.eng.Stats(); s.DemoteDecisions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAdaptiveNeedsEvidence(t *testing.T) {
	r := newRig(t, Adaptive, true)
	const size = 16 * machine.HugePageSize
	va, err := r.as.MapHuge(size)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Placed(va, size, true)
	// A tiny sample, even if lopsided, must not demote.
	p := memmodel.ScatteredTables{NumTables: 16, TableBytes: 4096, Count: minSamples / 4}
	rg := memmodel.Region{VA: va, Bytes: size, Class: vm.Huge}
	real := p.Apply(&r.m.CPU, r.dtlb, rg)
	r.eng.ObservePattern(p, rg, real)
	if cost := r.eng.Tick(windowTicks); cost != 0 {
		t.Fatalf("under-sampled site demoted (cost %d)", cost)
	}
	// No observations at all: windows advance, nothing fires.
	if cost := r.eng.Tick(5 * windowTicks); cost != 0 {
		t.Fatalf("idle window demoted (cost %d)", cost)
	}
}
