package vm_test

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/node/nodetest"
	"repro/internal/phys"
	"repro/internal/vm"
)

func testHost(t *testing.T) *node.Node {
	t.Helper()
	return nodetest.New(t, machine.Opteron())
}

func testAS(t *testing.T) *vm.AddressSpace {
	t.Helper()
	return testHost(t).AS
}

func TestMapSmallAndTranslate(t *testing.T) {
	as := testAS(t)
	va, err := as.MapSmall(3 * machine.SmallPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 3*machine.SmallPageSize; off += 1234 {
		pa, class, err := as.Translate(va + vm.VA(off))
		if err != nil {
			t.Fatalf("translate +%d: %v", off, err)
		}
		if class != vm.Small {
			t.Fatalf("class = %v, want Small", class)
		}
		if uint64(pa)%machine.SmallPageSize != off%machine.SmallPageSize {
			t.Fatalf("page offset not preserved at +%d", off)
		}
	}
	if _, _, err := as.Translate(va + vm.VA(4*machine.SmallPageSize)); !errors.Is(err, vm.ErrUnmapped) {
		t.Fatalf("translate past end: got %v, want ErrUnmapped", err)
	}
}

func TestMapHugeAlignmentAndContiguity(t *testing.T) {
	as := testAS(t)
	va, err := as.MapHuge(2 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(va)%machine.HugePageSize != 0 {
		t.Fatalf("hugepage mapping at %#x not 2MiB-aligned", uint64(va))
	}
	if !vm.IsHugeVA(va) {
		t.Fatal("hugepage VA not in huge window")
	}
	// Physical contiguity inside one hugepage.
	pa0, class, err := as.Translate(va)
	if err != nil || class != vm.Huge {
		t.Fatalf("translate: %v %v", class, err)
	}
	paMid, _, err := as.Translate(va + vm.VA(machine.HugePageSize/2))
	if err != nil {
		t.Fatal(err)
	}
	if paMid != pa0+phys.Addr(machine.HugePageSize/2) {
		t.Fatal("hugepage interior not physically contiguous")
	}
}

func TestSbrkGrowsHeap(t *testing.T) {
	as := testAS(t)
	a, err := as.Sbrk(100) // rounds to one page
	if err != nil {
		t.Fatal(err)
	}
	b, err := as.Sbrk(machine.SmallPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if b != a+vm.VA(machine.SmallPageSize) {
		t.Fatalf("heap not contiguous: %#x then %#x", uint64(a), uint64(b))
	}
}

func TestPagesEnumeration(t *testing.T) {
	as := testAS(t)
	va, _ := as.MapSmall(16 * machine.SmallPageSize)
	// A range starting mid-page and ending mid-page covers both edge pages.
	pages, err := as.Pages(nil, va+100, 2*machine.SmallPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("got %d pages, want 3", len(pages))
	}
	for i := 1; i < len(pages); i++ {
		if pages[i].VA != pages[i-1].VA+vm.VA(machine.SmallPageSize) {
			t.Fatal("pages not in order")
		}
	}
	// Hugepage ranges count 2MiB pages.
	hva, _ := as.MapHuge(3 * machine.HugePageSize)
	hp, err := as.Pages(nil, hva, 3*machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(hp) != 3 {
		t.Fatalf("got %d hugepages, want 3", len(hp))
	}
	// Pages appends after dst's elements, and a buffer passed back with
	// room to spare takes no allocation.
	both, err := as.Pages(pages, hva, 3*machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(both[:3], pages) || !slices.Equal(both[3:], hp) {
		t.Fatalf("Pages appended %v after %v, want %v", both[3:], both[:3], hp)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		both, err = as.Pages(both[:0], va+100, 2*machine.SmallPageSize)
	}); allocs != 0 || err != nil {
		t.Fatalf("a reused buffer: %.1f allocations per call (err %v), want 0", allocs, err)
	}
}

func TestPinBlocksUnmap(t *testing.T) {
	as := testAS(t)
	va, _ := as.MapSmall(4 * machine.SmallPageSize)
	if _, err := as.Pin(nil, va, 4*machine.SmallPageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(va, 4*machine.SmallPageSize); !errors.Is(err, vm.ErrPinnedUnmap) {
		t.Fatalf("unmap pinned: got %v, want ErrPinnedUnmap", err)
	}
	if err := as.Unpin(va, 4*machine.SmallPageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(va, 4*machine.SmallPageSize); err != nil {
		t.Fatalf("unmap after unpin: %v", err)
	}
	if _, _, err := as.Translate(va); !errors.Is(err, vm.ErrUnmapped) {
		t.Fatal("pages survive unmap")
	}
}

// TestPinAppendsToDst: Pin appends the pinned pages after dst's
// elements, reuses dst's capacity without allocating, and hands dst
// back unchanged when the range is bad.
func TestPinAppendsToDst(t *testing.T) {
	as := testAS(t)
	const n = 4
	va, _ := as.MapSmall(n * machine.SmallPageSize)
	want, err := as.Pages(nil, va, n*machine.SmallPageSize)
	if err != nil {
		t.Fatal(err)
	}
	head := vm.Page{VA: 1}
	got, err := as.Pin([]vm.Page{head}, va, n*machine.SmallPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n+1 || got[0] != head || !slices.Equal(got[1:], want) {
		t.Fatalf("Pin appended %v after %v, want %v", got[1:], got[:1], want)
	}
	if err := as.Unpin(va, n*machine.SmallPageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]vm.Page, 0, n)
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = as.Pin(buf[:0], va, n*machine.SmallPageSize); err != nil {
			t.Fatal(err)
		}
		if err := as.Unpin(va, n*machine.SmallPageSize); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pinning into a large enough buffer made %v allocations", allocs)
	}
	dst := []vm.Page{head}
	if got, err := as.Pin(dst, va+n*machine.SmallPageSize, machine.SmallPageSize); err == nil || len(got) != 1 || got[0] != head {
		t.Fatalf("Pin of an unmapped page returned %v, %v; want dst and an error", got, err)
	}
}

func TestUnpinWithoutPin(t *testing.T) {
	as := testAS(t)
	va, _ := as.MapSmall(machine.SmallPageSize)
	if err := as.Unpin(va, machine.SmallPageSize); !errors.Is(err, vm.ErrNotPinned) {
		t.Fatalf("got %v, want ErrNotPinned", err)
	}
}

func TestMapHugeOrSmallFallback(t *testing.T) {
	n := testHost(t)
	mem, as := n.Mem, n.AS
	if err := mem.Reserve(mem.HugeTotal()); err != nil { // pool fully reserved -> force fallback
		t.Fatal(err)
	}
	va, huge, err := as.MapHugeOrSmall(machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if huge {
		t.Fatal("expected small-page fallback")
	}
	if vm.IsHugeVA(va) {
		t.Fatal("fallback mapping landed in huge window")
	}
	if as.Stats().HugeFallbacks != 1 {
		t.Fatal("fallback not counted")
	}
	// Without the reserve the same request gets a hugepage.
	_, huge, err = testHost(t).AS.MapHugeOrSmall(machine.HugePageSize)
	if err != nil || !huge {
		t.Fatalf("expected hugepage success, got huge=%v err=%v", huge, err)
	}
}

func TestUnmapReleasesHugepagesToPool(t *testing.T) {
	n := testHost(t)
	mem, as := n.Mem, n.AS
	before := mem.HugeAvailable()
	va, err := as.MapHuge(4 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if mem.HugeAvailable() != before-4 {
		t.Fatal("pool accounting wrong after map")
	}
	if err := as.Unmap(va, 4*machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	if mem.HugeAvailable() != before {
		t.Fatal("pool accounting wrong after unmap")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	as := testAS(t)
	va, _ := as.MapSmall(3 * machine.SmallPageSize)
	in := make([]byte, 2*machine.SmallPageSize)
	for i := range in {
		in[i] = byte(i % 251)
	}
	// Start mid-page to cross boundaries.
	if err := as.Write(va+1000, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := as.Read(va+1000, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

// Property: write-then-read at any offset/length inside a mapping is the
// identity, for both page classes.
func TestQuickReadWriteIdentity(t *testing.T) {
	as := testAS(t)
	sva, _ := as.MapSmall(64 * machine.SmallPageSize)
	hva, _ := as.MapHuge(2 * machine.HugePageSize)
	f := func(off uint32, n uint16, seed byte, useHuge bool) bool {
		base, limit := sva, uint64(64*machine.SmallPageSize)
		if useHuge {
			base, limit = hva, uint64(2*machine.HugePageSize)
		}
		o := uint64(off) % (limit - 1)
		l := uint64(n)
		if o+l > limit {
			l = limit - o
		}
		in := make([]byte, l)
		for i := range in {
			in[i] = seed + byte(i)
		}
		if err := as.Write(base+vm.VA(o), in); err != nil {
			return false
		}
		out := make([]byte, l)
		if err := as.Read(base+vm.VA(o), out); err != nil {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: pin/unpin in matched pairs always returns the space to an
// unmappable state, and pin counts never go negative.
func TestQuickPinUnpinBalance(t *testing.T) {
	as := testAS(t)
	va, _ := as.MapSmall(32 * machine.SmallPageSize)
	f := func(off uint16, n uint16) bool {
		o := uint64(off) % (31 * machine.SmallPageSize)
		l := uint64(n)%machine.SmallPageSize + 1
		if _, err := as.Pin(nil, va+vm.VA(o), l); err != nil {
			return false
		}
		return as.Unpin(va+vm.VA(o), l) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	st := as.Stats()
	if st.Pins != st.Unpins {
		t.Fatalf("pins %d != unpins %d", st.Pins, st.Unpins)
	}
	if err := as.Unmap(va, 32*machine.SmallPageSize); err != nil {
		t.Fatalf("space should be unmappable after balanced pin/unpin: %v", err)
	}
}

func TestRegionsView(t *testing.T) {
	as := testAS(t)
	if _, err := as.MapSmall(machine.SmallPageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapHuge(machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	regs := as.Regions()
	if len(regs) != 2 {
		t.Fatalf("got %d regions, want 2", len(regs))
	}
	if regs[0].Start > regs[1].Start {
		t.Fatal("regions not sorted")
	}
}

func TestUnmapUnknownRegion(t *testing.T) {
	as := testAS(t)
	if err := as.Unmap(0xdead000, 4096); !errors.Is(err, vm.ErrBadUnmap) {
		t.Fatalf("got %v, want ErrBadUnmap", err)
	}
}

func TestDemoteSplitsInPlace(t *testing.T) {
	host := testHost(t)
	as := host.AS
	va, err := as.MapHuge(4 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	paBefore, _, err := as.Translate(va + 123456)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("demotion moves no data")
	if err := as.Write(va+777, want); err != nil {
		t.Fatal(err)
	}
	n, err := as.Demote(va, 4*machine.HugePageSize)
	if err != nil || n != 4 {
		t.Fatalf("Demote = %d, %v; want 4 pages", n, err)
	}
	pa, class, err := as.Translate(va + 123456)
	if err != nil || class != vm.Small {
		t.Fatalf("translate: class %v, err %v", class, err)
	}
	if pa != paBefore {
		t.Fatalf("physical address moved: %#x -> %#x", paBefore, pa)
	}
	got := make([]byte, len(want))
	if err := as.Read(va+777, got); err != nil || string(got) != string(want) {
		t.Fatalf("data = %q (%v)", got, err)
	}
	st := as.Stats()
	if st.Demotions != 4 || st.DemotedBytes != 4*machine.HugePageSize {
		t.Fatalf("stats = %+v", st)
	}
	if st.MappedHuge != 0 || st.MappedSmall != 4*machine.SmallPerHuge {
		t.Fatalf("gauges = %+v", st)
	}
}

func TestDemoteSkipsPinned(t *testing.T) {
	host := testHost(t)
	as := host.AS
	va, err := as.MapHuge(2 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Pin(nil, va, machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	n, err := as.Demote(va, 2*machine.HugePageSize)
	if err != nil || n != 1 {
		t.Fatalf("Demote = %d, %v; want the unpinned page only", n, err)
	}
	if _, class, _ := as.Translate(va); class != vm.Huge {
		t.Fatal("pinned page lost its hugepage translation")
	}

}

func TestDemoteIgnoresPartialAndSmallRanges(t *testing.T) {
	as := testAS(t)
	va, err := as.MapHuge(machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	// A range not covering one full hugepage demotes nothing.
	if n, err := as.Demote(va+4096, machine.HugePageSize-4096); err != nil || n != 0 {
		t.Fatalf("partial range: %d, %v", n, err)
	}
	sva, err := as.MapSmall(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := as.Demote(sva, 1<<20); err != nil || n != 0 {
		t.Fatalf("small-window range: %d, %v", n, err)
	}
}

func TestUnmapDemotedMappingWholeAndPartial(t *testing.T) {
	host := testHost(t)
	as := host.AS
	avail := as.Mem().HugeAvailable()

	// Fully demoted: the original (start, size) still unmaps as a whole
	// and every 2 MiB run returns to the pool.
	va, err := as.MapHuge(3 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Demote(va, 3*machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(va, 3*machine.HugePageSize); err != nil {
		t.Fatalf("unmap of fully demoted mapping: %v", err)
	}
	if got := as.Mem().HugeAvailable(); got != avail {
		t.Fatalf("pool = %d, want %d", got, avail)
	}

	// Partially demoted (middle page pinned): mixed-class pieces still
	// unmap as the original whole once the pin drops.
	va, err = as.MapHuge(3 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Pin(nil, va+machine.HugePageSize, machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	if n, _ := as.Demote(va, 3*machine.HugePageSize); n != 2 {
		t.Fatalf("demoted %d, want 2", n)
	}
	if err := as.Unmap(va, 3*machine.HugePageSize); err == nil {
		t.Fatal("unmap of pinned mapping must refuse")
	}
	if err := as.Unpin(va+machine.HugePageSize, machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(va, 3*machine.HugePageSize); err != nil {
		t.Fatalf("unmap of partially demoted mapping: %v", err)
	}
	if got := as.Mem().HugeAvailable(); got != avail {
		t.Fatalf("pool = %d, want %d", got, avail)
	}
	if st := as.Stats(); st.MappedHuge != 0 || st.MappedSmall != 0 {
		t.Fatalf("gauges = %+v", st)
	}
}
