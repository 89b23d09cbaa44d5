package vm_test

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/vm"
)

func TestForkSharesThenCopies(t *testing.T) {
	n := testHost(t)
	mem, parent := n.Mem, n.AS
	va, err := parent.MapHuge(machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(va, []byte("original")); err != nil {
		t.Fatal(err)
	}
	allocatedBefore := mem.Stats().HugeAllocated

	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Fork itself allocates nothing for unpinned pages (pure sharing).
	if got := mem.Stats().HugeAllocated; got != allocatedBefore {
		t.Fatalf("fork allocated %d hugepages, want 0", got-allocatedBefore)
	}
	// The child reads the parent's data.
	buf := make([]byte, 8)
	if err := child.Read(va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("child sees %q", buf)
	}
	// Child writes: CoW break allocates a private hugepage; the parent's
	// view is untouched.
	if err := child.Write(va, []byte("mutated!")); err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().HugeAllocated; got != allocatedBefore+1 {
		t.Fatalf("CoW break allocated %d pages, want 1", got-allocatedBefore)
	}
	if child.Stats().CoWBreaks != 1 {
		t.Fatal("CoW break not counted")
	}
	if err := parent.Read(va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "original" {
		t.Fatalf("parent corrupted by child write: %q", buf)
	}
	cb := make([]byte, 8)
	_ = child.Read(va, cb)
	if string(cb) != "mutated!" {
		t.Fatalf("child lost its write: %q", cb)
	}
}

func TestForkCopiesPinnedPagesEagerly(t *testing.T) {
	n := testHost(t)
	mem, parent := n.Mem, n.AS
	va, _ := parent.MapHuge(machine.HugePageSize)
	if _, err := parent.Pin(nil, va, machine.HugePageSize); err != nil {
		t.Fatal(err)
	}
	_ = parent.Write(va, []byte("dma-data"))
	before := mem.Stats().HugeAllocated
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Stats().HugeAllocated; got != before+1 {
		t.Fatalf("pinned page should be copied at fork: %d new pages", got-before)
	}
	// The child's copy is independent and NOT pinned.
	buf := make([]byte, 8)
	_ = child.Read(va, buf)
	if string(buf) != "dma-data" {
		t.Fatalf("pinned copy lost data: %q", buf)
	}
	if err := child.Unpin(va, machine.HugePageSize); !errors.Is(err, vm.ErrNotPinned) {
		t.Fatal("child inherited pin state")
	}
}

func TestCoWReserveIsWhatSavesFork(t *testing.T) {
	// The paper's rationale: the mapping layer leaves a hugepage reserve
	// so post-fork CoW writes can always be satisfied. Exhaust the pool
	// down to the reserve, fork, write — the write must succeed by
	// dipping into the reserve; without a reserve it must fail.
	run := func(reserve int) error {
		n := testHost(t)
		mem, as := n.Mem, n.AS
		va, err := as.MapHuge(machine.HugePageSize)
		if err != nil {
			return err
		}
		if err := mem.Reserve(reserve); err != nil {
			return err
		}
		// Drain everything above the reserve.
		for {
			if _, err := mem.AllocHuge(); err != nil {
				break
			}
		}
		child, err := as.Fork()
		if err != nil {
			return err
		}
		return child.Write(va, []byte("post-fork write"))
	}
	if err := run(4); err != nil {
		t.Fatalf("with a reserve, the CoW write must succeed: %v", err)
	}
	if err := run(0); !errors.Is(err, phys.ErrOutOfHugepages) {
		t.Fatalf("without a reserve, got %v, want ErrOutOfHugepages", err)
	}
}

func TestPinBreaksCoW(t *testing.T) {
	// Registering memory after a fork must un-share it: DMA writes bypass
	// page faults, so a shared page would corrupt the sibling.
	n := testHost(t)
	mem, parent := n.Mem, n.AS
	va, _ := parent.MapHuge(machine.HugePageSize)
	_ = parent.Write(va, []byte("shared"))
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	before := mem.Stats().HugeAllocated
	pages, err := child.Pin(nil, va, machine.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Stats().HugeAllocated != before+1 {
		t.Fatal("pin of a CoW page must allocate a private copy")
	}
	// The returned PA must point at the child's private copy: write
	// through physical memory (as DMA would) and check isolation.
	mem.WritePhys(pages[0].PA, []byte("dma!!!"))
	buf := make([]byte, 6)
	_ = parent.Read(va, buf)
	if string(buf) == "dma!!!" {
		t.Fatal("DMA into the child leaked into the parent")
	}
	cb := make([]byte, 6)
	_ = child.Read(va, cb)
	if string(cb) != "dma!!!" {
		t.Fatalf("child DMA target wrong: %q", cb)
	}
}

func TestForkPreservesSmallPages(t *testing.T) {
	parent := testAS(t)
	va, _ := parent.MapSmall(4 * machine.SmallPageSize)
	_ = parent.Write(va+5000, []byte("hello"))
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	_ = child.Read(va+5000, buf)
	if string(buf) != "hello" {
		t.Fatalf("child small-page read: %q", buf)
	}
	_ = child.Write(va+5000, []byte("world"))
	_ = parent.Read(va+5000, buf)
	if string(buf) != "hello" {
		t.Fatal("small-page CoW isolation broken")
	}
}
