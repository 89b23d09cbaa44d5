package node_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/vm"
)

func TestConfigValidation(t *testing.T) {
	if err := (node.Config{}).Validate(); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := node.New(node.Config{}); err == nil {
		t.Fatal("New built a host without a machine")
	}
	bad := node.Config{Machine: machine.Opteron(), Allocator: "tcmalloc"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown allocator accepted")
	}
	if _, err := node.New(bad); err == nil {
		t.Fatal("New built a host with an unknown allocator")
	}
	ok := node.Config{Machine: machine.Opteron(), Allocator: node.AllocHuge}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsResolved(t *testing.T) {
	n, err := node.New(node.Config{Machine: machine.Opteron()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := n.Config()
	if cfg.Allocator != node.AllocLibc {
		t.Fatalf("default allocator = %q, want libc", cfg.Allocator)
	}
	if cfg.ScrambleDepth != node.DefaultScramble {
		t.Fatalf("default scramble depth = %d, want %d", cfg.ScrambleDepth, node.DefaultScramble)
	}
	n2, err := node.New(node.Config{Machine: machine.Opteron(), ScrambleDepth: node.NoScramble})
	if err != nil {
		t.Fatal(err)
	}
	if n2.Config().ScrambleDepth != node.NoScramble {
		t.Fatal("NoScramble not preserved")
	}
	if n.Machine().Name != machine.Opteron().Name {
		t.Fatal("Machine accessor wrong")
	}
}

func TestNewAllocatorKinds(t *testing.T) {
	for _, kind := range []node.AllocatorKind{
		node.AllocLibc, node.AllocHuge, node.AllocMorecore, node.AllocPageSep,
	} {
		n, err := node.New(node.Config{Machine: machine.SystemP(), Allocator: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		va, err := n.Alloc.Alloc(100 << 10)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := n.Alloc.Free(va); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := node.New(node.Config{Machine: machine.Opteron(), Allocator: "tcmalloc"}); err == nil {
		t.Fatal("unknown allocator kind accepted")
	}
}

// script drives every layer of a host once: three allocations, a
// lazy-cached registration (miss, hit), a DMA gather/scatter pair, and a
// page-walk sweep. It returns the buffer addresses it placed.
func script(t *testing.T, n *node.Node) []vm.VA {
	t.Helper()
	var vas []vm.VA
	for _, sz := range []uint64{40 << 10, 256 << 10, 1 << 20} {
		va, err := n.Alloc.Alloc(sz)
		if err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	mr, _, err := n.Cache.Acquire(vas[2], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Cache.Release(mr); err != nil {
		t.Fatal(err)
	}
	mr2, _, err := n.Cache.Acquire(vas[2], 1<<20) // lazy: cache hit
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := n.Verbs.HW.Gather([]hca.SGE{{Addr: vas[2], Length: 64 << 10, LKey: mr2.LKey}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Verbs.HW.Scatter([]hca.SGE{{Addr: vas[2] + 64<<10, Length: 64 << 10, LKey: mr2.LKey}}, data); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Cache.Release(mr2); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 1<<20; off += 4096 {
		n.DTLB.Access(vas[2]+vm.VA(off), vm.Huge)
	}
	if err := n.Alloc.Free(vas[0]); err != nil {
		t.Fatal(err)
	}
	return vas
}

func telemetryConfig(m *machine.Machine) node.Config {
	return node.Config{
		Machine:   m,
		Allocator: node.AllocHuge,
		LazyDereg: true,
		HugeATT:   true,
	}
}

func TestStatsAggregationMatchesLayers(t *testing.T) {
	n, err := node.New(telemetryConfig(machine.Opteron()))
	if err != nil {
		t.Fatal(err)
	}
	script(t, n)
	st := n.Stats()

	if st.Machine != machine.Opteron().Name || st.Allocator != "huge" {
		t.Fatalf("identity wrong: %q %q", st.Machine, st.Allocator)
	}
	small, large := n.DTLB.Small.Stats(), n.DTLB.Large.Stats()
	wantTLB := node.TLBStats{
		Hits4K: small.Hits, Misses4K: small.Misses,
		Hits2M: large.Hits, Misses2M: large.Misses,
	}
	if st.TLB != wantTLB {
		t.Fatalf("TLB stats %+v, want %+v", st.TLB, wantTLB)
	}
	if st.TLB.Hits2M+st.TLB.Misses2M == 0 {
		t.Fatal("page-walk sweep left no TLB telemetry")
	}
	if dm := n.DTLB.Small.Stats().Misses + n.DTLB.Large.Stats().Misses; st.TLB.Misses() != dm {
		t.Fatalf("TLB misses %d, DTLB counts %d", st.TLB.Misses(), dm)
	}
	hw := n.Verbs.HW.Stats()
	if st.HCA.ATTHits != hw.ATTHits || st.HCA.ATTMisses != hw.ATTMisses ||
		st.HCA.BytesGather != hw.BytesGather || st.HCA.BytesScatter != hw.BytesScatter {
		t.Fatalf("HCA stats %+v do not match the adapter %+v", st.HCA, hw)
	}
	if st.HCA.BusBytes != hw.BytesGather+hw.BytesScatter || st.HCA.BusBytes != 2*(64<<10) {
		t.Fatalf("bus bytes %d, want %d", st.HCA.BusBytes, 2*(64<<10))
	}
	reg := n.Verbs.Stats()
	if st.Reg.Registrations != reg.Registrations || st.Reg.RegTicks != reg.RegTicks ||
		st.Reg.PagesPinned != reg.PagesPinned {
		t.Fatalf("reg stats %+v do not match verbs %+v", st.Reg, reg)
	}
	if st.Reg.Registrations == 0 {
		t.Fatal("no registration recorded")
	}
	rc := n.Cache.Stats()
	if st.Cache.Hits != rc.Hits || st.Cache.Misses != rc.Misses {
		t.Fatalf("cache stats %+v do not match regcache %+v", st.Cache, rc)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	al := n.Alloc.Stats()
	if st.Alloc.Allocs != al.Allocs || st.Alloc.Frees != al.Frees || st.Alloc.Ticks != al.Ticks {
		t.Fatalf("alloc stats %+v do not match allocator %+v", st.Alloc, al)
	}
	if st.Alloc.Allocs != 3 || st.Alloc.Frees != 1 {
		t.Fatalf("alloc ops %d/%d, want 3/1", st.Alloc.Allocs, st.Alloc.Frees)
	}
	if st.Mem.MappedHuge != n.AS.Stats().MappedHuge || st.Mem.MappedHuge == 0 {
		t.Fatalf("mapped-huge gauge %d inconsistent", st.Mem.MappedHuge)
	}
	if st.Mem.HugePagesUsed != int64(n.Mem.Stats().HugeAllocated) {
		t.Fatal("hugepage-pool gauge inconsistent")
	}
}

func TestDeterministicRebuild(t *testing.T) {
	// Same config (including the default scrambled frame pool) must give
	// two hosts with identical placement and identical telemetry after an
	// identical operation sequence.
	run := func() (node.Stats, []vm.VA) {
		n, err := node.New(telemetryConfig(machine.Opteron()))
		if err != nil {
			t.Fatal(err)
		}
		vas := script(t, n)
		return n.Stats(), vas
	}
	st1, vas1 := run()
	st2, vas2 := run()
	if !reflect.DeepEqual(vas1, vas2) {
		t.Fatalf("placement differs across rebuilds: %v vs %v", vas1, vas2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("telemetry differs across rebuilds:\n%+v\n%+v", st1, st2)
	}
}

func TestStatsSum(t *testing.T) {
	n, err := node.New(telemetryConfig(machine.Opteron()))
	if err != nil {
		t.Fatal(err)
	}
	script(t, n)
	st := n.Stats()
	total := node.Sum([]node.Stats{st, st})
	if total.Machine != st.Machine || total.Allocator != st.Allocator {
		t.Fatal("Sum lost the identity of the first snapshot")
	}
	if total.Cache.Misses != 2*st.Cache.Misses ||
		total.Reg.Registrations != 2*st.Reg.Registrations ||
		total.TLB.Misses2M != 2*st.TLB.Misses2M ||
		total.HCA.BusBytes != 2*st.HCA.BusBytes ||
		total.Alloc.Ticks != 2*st.Alloc.Ticks {
		t.Fatalf("Sum did not double the counters: %+v", total)
	}
	if zero := node.Sum(nil); !reflect.DeepEqual(zero, node.Stats{}) {
		t.Fatal("Sum(nil) not zero")
	}
}

func TestSumTakesMaxOfPeakGauges(t *testing.T) {
	// Two nodes whose peaks never coexisted: node A peaked at 100 while
	// node B sat at 40, then A dropped before B climbed to 60. The
	// cluster-wide peak is 100 (max), not 160 (sum).
	var a, b node.Stats
	a.Cache.PeakPinned, b.Cache.PeakPinned = 100, 60
	a.Alloc.PeakLive, b.Alloc.PeakLive = 1<<20, 3<<20
	a.Mem.HugePagesPeak, b.Mem.HugePagesPeak = 7, 5
	a.Cache.PinnedBytes, b.Cache.PinnedBytes = 10, 20

	total := node.Sum([]node.Stats{a, b})
	if got, want := total.Cache.PeakPinned, int64(100); got != want {
		t.Errorf("Cache.PeakPinned = %d, want max %d", got, want)
	}
	if got, want := total.Alloc.PeakLive, int64(3<<20); got != want {
		t.Errorf("Alloc.PeakLive = %d, want max %d", got, want)
	}
	if got, want := total.Mem.HugePagesPeak, int64(7); got != want {
		t.Errorf("Mem.HugePagesPeak = %d, want max %d", got, want)
	}
	// Live gauges still sum: simultaneous snapshots do coexist.
	if got, want := total.Cache.PinnedBytes, int64(30); got != want {
		t.Errorf("Cache.PinnedBytes = %d, want sum %d", got, want)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	n, err := node.New(telemetryConfig(machine.Opteron()))
	if err != nil {
		t.Fatal(err)
	}
	script(t, n)
	st := n.Stats()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back node.Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("JSON round trip lost data:\n%+v\n%+v", st, back)
	}
	// The documents the -stats flags emit key the layers by name.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"machine", "allocator", "tlb", "hca", "reg", "regcache", "alloc", "mem"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("stats JSON missing %q section", key)
		}
	}
}
