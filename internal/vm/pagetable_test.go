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
