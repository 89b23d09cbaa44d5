package vm_test

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/vm"
)

// TestPinSurvivesDemoteSplit pins hugepages 0 and 2 of a four-page
// mapping, then demotes it: pages 1 and 3 split, leaving the pinned
// pages in pieces of their own. Every later operation looks the pages up
// afresh, so each must still see exactly one pin, and unmapping the
// whole must return every frame it took.
func TestPinSurvivesDemoteSplit(t *testing.T) {
	host := testHost(t)
	as, mem := host.AS, host.Mem
	before := mem.Stats()
	avail := mem.HugeAvailable()

	va, err := as.MapHuge(4 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	page := func(i int) vm.VA { return va + vm.VA(i*machine.HugePageSize) }
	var pinnedPA [4]phys.Addr
	for _, i := range []int{0, 2} {
		pages, err := as.Pin(nil, page(i), machine.HugePageSize)
		if err != nil {
			t.Fatal(err)
		}
		pinnedPA[i] = pages[0].PA
	}
	if n, err := as.Demote(va, 4*machine.HugePageSize); err != nil || n != 2 {
		t.Fatalf("Demote = %d, %v; want the two unpinned pages", n, err)
	}
	for i, want := range []vm.PageClass{vm.Huge, vm.Small, vm.Huge, vm.Small} {
		pa, class, err := as.Translate(page(i) + 4097)
		if err != nil || class != want {
			t.Fatalf("page %d: class %v, err %v; want %v", i, class, err, want)
		}
		if want == vm.Huge && pa != pinnedPA[i]+4097 {
			t.Fatalf("pinned page %d moved: %#x, want %#x", i, pa, pinnedPA[i]+4097)
		}
	}
	if err := as.Unmap(va, 4*machine.HugePageSize); !errors.Is(err, vm.ErrPinnedUnmap) {
		t.Fatalf("unmap with pins held: got %v, want ErrPinnedUnmap", err)
	}
	// A pin taken after the split lands on the 4 KiB subpage.
	if _, err := as.Pin(nil, page(1)+8192, 1); err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		va   vm.VA
		size uint64
	}{{page(0), machine.HugePageSize}, {page(2), machine.HugePageSize}, {page(1) + 8192, 1}} {
		if err := as.Unpin(pin.va, pin.size); err != nil {
			t.Fatalf("unpin %#x: %v", pin.va, err)
		}
		if err := as.Unpin(pin.va, pin.size); !errors.Is(err, vm.ErrNotPinned) {
			t.Fatalf("second unpin %#x: got %v, want ErrNotPinned", pin.va, err)
		}
	}
	if err := as.Unmap(va, 4*machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	after := mem.Stats()
	if after.HugeAllocated != before.HugeAllocated || after.SmallAllocated != before.SmallAllocated {
		t.Fatalf("frames not returned: huge %d -> %d, small %d -> %d",
			before.HugeAllocated, after.HugeAllocated, before.SmallAllocated, after.SmallAllocated)
	}
	if got := mem.HugeAvailable(); got != avail {
		t.Fatalf("pool = %d, want %d", got, avail)
	}
	if st := as.Stats(); st.MappedHuge != 0 || st.MappedSmall != 0 {
		t.Fatalf("gauges = %+v", st)
	}
}

// TestCoWBreaksAfterForkStayPrivate checks that copy-on-write breaks on
// either side of a fork change only that side's page table, as seen by
// fresh lookups, and that a page neither side wrote stays shared.
func TestCoWBreaksAfterForkStayPrivate(t *testing.T) {
	parent := testAS(t)
	sva, err := parent.MapSmall(3 * machine.SmallPageSize)
	if err != nil {
		t.Fatal(err)
	}
	hva, err := parent.MapHuge(2 * machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []vm.VA{sva, sva + machine.SmallPageSize, sva + 2*machine.SmallPageSize, hva, hva + machine.HugePageSize}
	translate := func(as *vm.AddressSpace) []phys.Addr {
		t.Helper()
		out := make([]phys.Addr, len(addrs))
		for i, a := range addrs {
			pa, _, err := as.Translate(a)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = pa
		}
		return out
	}
	orig := translate(parent)
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// The child writes small page 1 and hugepage 0; the parent writes
	// small page 2; a pin in the child breaks hugepage 1.
	for _, w := range []struct {
		as *vm.AddressSpace
		va vm.VA
	}{{child, addrs[1]}, {child, addrs[3]}, {parent, addrs[2]}} {
		if err := w.as.Write(w.va, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := child.Pin(nil, addrs[4], 1)
	if err != nil {
		t.Fatal(err)
	}
	p, c := translate(parent), translate(child)
	if pinned[0].PA != c[4] {
		t.Fatalf("Pin returned %#x, a fresh lookup sees %#x", pinned[0].PA, c[4])
	}
	for i, want := range []struct{ parentMoved, childMoved bool }{
		{false, false}, {false, true}, {true, false}, {false, true}, {false, true},
	} {
		if moved := p[i] != orig[i]; moved != want.parentMoved {
			t.Errorf("page %d: parent moved = %v, want %v", i, moved, want.parentMoved)
		}
		if moved := c[i] != orig[i]; moved != want.childMoved {
			t.Errorf("page %d: child moved = %v, want %v", i, moved, want.childMoved)
		}
	}
	if got := child.Stats().CoWBreaks; got != 3 {
		t.Fatalf("child CoW breaks = %d, want 3", got)
	}
	if got := parent.Stats().CoWBreaks; got != 1 {
		t.Fatalf("parent CoW breaks = %d, want 1", got)
	}
	// Page 0 is still shared: a write on either side now breaks it there
	// alone.
	if err := parent.Write(addrs[0], []byte("y")); err != nil {
		t.Fatal(err)
	}
	if pa, _, _ := child.Translate(addrs[0]); pa != orig[0] {
		t.Fatalf("parent's break of page 0 moved the child's page to %#x", pa)
	}
}
