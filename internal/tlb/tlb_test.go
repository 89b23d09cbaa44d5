package tlb

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/vm"
)

func TestFileHitAfterMiss(t *testing.T) {
	f := NewFile(machine.TLBGeometry{Entries: 8, Ways: 2})
	if f.Access(42) {
		t.Fatal("first access must miss")
	}
	if !f.Access(42) {
		t.Fatal("second access must hit")
	}
	st := f.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFileLRUWithinSet(t *testing.T) {
	// 2-way, 2 sets: pages 0,2,4 all map to set 0.
	f := NewFile(machine.TLBGeometry{Entries: 4, Ways: 2})
	f.Access(0)
	f.Access(2)
	f.Access(0) // refresh 0 -> 2 is now LRU
	f.Access(4) // evicts 2
	if !f.Access(0) {
		t.Fatal("0 should have survived (was MRU)")
	}
	if f.Access(2) {
		t.Fatal("2 should have been evicted")
	}
}

func TestFileCapacity(t *testing.T) {
	// Sequential working set within capacity: zero misses after warmup.
	geo := machine.TLBGeometry{Entries: 16, Ways: 4}
	f := NewFile(geo)
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 16; p++ {
			f.Access(p)
		}
	}
	st := f.Stats()
	if st.Misses != 16 {
		t.Fatalf("misses = %d, want 16 (cold only)", st.Misses)
	}
	// Working set 2x capacity with a sequential sweep: LRU thrashes.
	f2 := NewFile(geo)
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 32; p++ {
			f2.Access(p)
		}
	}
	if f2.Stats().Hits != 0 {
		t.Fatalf("sequential over-capacity sweep should never hit LRU, got %d hits", f2.Stats().Hits)
	}
}

func TestFlushAndReset(t *testing.T) {
	f := NewFile(machine.TLBGeometry{Entries: 4, Ways: 4})
	f.Access(1)
	f.Flush()
	if f.Access(1) {
		t.Fatal("hit after flush")
	}
	f.ResetStats()
	if s := f.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestDTLBSplitFiles(t *testing.T) {
	cpu := machine.Opteron().CPU
	d := New(&cpu)
	// A small-page access must not consume hugepage entries or vice versa.
	if p := d.Access(0x1000, vm.Small); p != cpu.WalkTicks {
		t.Fatalf("cold small access penalty = %d, want %d", p, cpu.WalkTicks)
	}
	if p := d.Access(0x1000, vm.Small); p != 0 {
		t.Fatalf("warm small access penalty = %d, want 0", p)
	}
	if d.Large.Stats().Accesses() != 0 {
		t.Fatal("small access touched the hugepage file")
	}
	if p := d.Access(0x40000000000, vm.Huge); p != cpu.WalkTicks {
		t.Fatal("cold huge access should walk")
	}
	if d.Misses() != 2 {
		t.Fatalf("total misses = %d, want 2", d.Misses())
	}
}

func TestOpteronHugeReachParadox(t *testing.T) {
	// The paper's central caveat: 8 hugepage entries reach 16 MiB, while
	// 544 small entries reach only ~2.1 MiB; but a scattered working set
	// of >8 distinct hugepage-sized regions thrashes the hugepage file
	// while fitting comfortably in the small one.
	cpu := machine.Opteron().CPU
	small := NewFile(cpu.TLB4K)
	large := NewFile(cpu.TLB2M)
	if large.Reach(machine.HugePageSize) <= small.Reach(machine.SmallPageSize) {
		t.Fatal("hugepage reach should exceed small reach")
	}
	// 64 hot 4K-pages spread across 64 distinct 2M regions.
	const hot = 64
	for round := 0; round < 10; round++ {
		for i := 0; i < hot; i++ {
			va := uint64(i) * 3 * machine.HugePageSize
			small.Access(va / machine.SmallPageSize)
			large.Access(va / machine.HugePageSize)
		}
	}
	if small.Stats().MissRate() > 0.2 {
		t.Fatalf("small-page file should hold 64 pages: miss rate %.2f", small.Stats().MissRate())
	}
	if large.Stats().MissRate() < 0.5 {
		t.Fatalf("hugepage file should thrash on 64 regions: miss rate %.2f", large.Stats().MissRate())
	}
}

// Property: hit+miss counts always equal accesses, and re-accessing the
// same page immediately always hits.
func TestQuickImmediateReaccess(t *testing.T) {
	f := NewFile(machine.TLBGeometry{Entries: 32, Ways: 4})
	fn := func(vpn uint32) bool {
		f.Access(uint64(vpn))
		return f.Access(uint64(vpn))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Accesses() != st.Hits+st.Misses {
		t.Fatal("counter identity violated")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFile(machine.TLBGeometry{Entries: 5, Ways: 2})
}

func TestInvalidateRange(t *testing.T) {
	f := NewFile(machine.TLBGeometry{Entries: 16, Ways: 4})
	for vpn := uint64(0); vpn < 8; vpn++ {
		f.Access(vpn)
	}
	f.InvalidateRange(2, 5)
	for vpn := uint64(0); vpn < 8; vpn++ {
		hit := f.Access(vpn)
		inRange := vpn >= 2 && vpn < 5
		if inRange && hit {
			t.Fatalf("vpn %d should have been shot down", vpn)
		}
		if !inRange && !hit {
			t.Fatalf("vpn %d outside the range was perturbed", vpn)
		}
	}
	// An empty range is a no-op.
	before := f.Stats()
	f.InvalidateRange(100, 100)
	for vpn := uint64(5); vpn < 8; vpn++ {
		if !f.Access(vpn) {
			t.Fatalf("vpn %d lost to an empty-range shootdown", vpn)
		}
	}
	if f.Stats().Misses != before.Misses {
		t.Fatal("empty-range shootdown caused misses")
	}
}

var fileSink *File

// TestNewFileAllocatesNoEntries checks that building a file allocates
// only its header, however large its geometry, and that flushing or
// shooting down an untouched file allocates nothing either.
func TestNewFileAllocatesNoEntries(t *testing.T) {
	for _, geo := range []machine.TLBGeometry{
		{Entries: 8, Ways: 8},
		{Entries: 32, Ways: 4},
		{Entries: 512, Ways: 4},
		{Entries: 4096, Ways: 2},
	} {
		if allocs := testing.AllocsPerRun(20, func() { fileSink = NewFile(geo) }); allocs != 1 {
			t.Errorf("NewFile(%+v) made %v allocations, want 1", geo, allocs)
		}
		f := NewFile(geo)
		if allocs := testing.AllocsPerRun(20, func() { f.Flush(); f.InvalidateRange(0, 1<<40) }); allocs != 0 {
			t.Errorf("Flush/InvalidateRange of an untouched %+v file made %v allocations", geo, allocs)
		}
		if f.ents != nil {
			t.Errorf("untouched %+v file holds an entry array", geo)
		}
	}
}

// TestFirstAccessAllocatesOneArray checks that the first access
// allocates exactly one entry array, sized to the geometry, and that
// later accesses allocate nothing.
func TestFirstAccessAllocatesOneArray(t *testing.T) {
	geo := machine.TLBGeometry{Entries: 512, Ways: 4}
	var f *File
	allocs := testing.AllocsPerRun(20, func() {
		f = NewFile(geo)
		f.Access(7)
	})
	if allocs != 2 {
		t.Fatalf("NewFile plus one access made %v allocations, want 2 (header and entry array)", allocs)
	}
	if len(f.ents) != geo.Entries {
		t.Fatalf("entry array holds %d entries, want %d", len(f.ents), geo.Entries)
	}
	vpn := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() { f.Access(vpn); vpn += 3 }); allocs != 0 {
		t.Fatalf("a warm access made %v allocations", allocs)
	}
}

// TestFileSetsAreDisjoint checks that the sets laid over the flat entry
// array do not overlap and together cover it: a distinct stamp written
// to every way of every set reads back unchanged.
func TestFileSetsAreDisjoint(t *testing.T) {
	if sz := unsafe.Sizeof(entry{}); sz != 16 {
		t.Fatalf("entry is %d bytes, want 16", sz)
	}
	const ways, sets = 4, 16
	f := NewFile(machine.TLBGeometry{Entries: ways * sets, Ways: ways})
	for s := uint64(0); s < sets; s++ {
		set := f.set(s)
		if len(set) != ways || cap(set) != ways {
			t.Fatalf("set %d has len %d cap %d, want %d ways", s, len(set), cap(set), ways)
		}
		for w := range set {
			set[w].vpn = s*ways + uint64(w)
		}
	}
	for s := uint64(0); s < sets; s++ {
		for w, e := range f.set(s) {
			if e.vpn != s*ways+uint64(w) {
				t.Fatalf("set %d way %d holds %d: sets overlap", s, w, e.vpn)
			}
		}
	}
	for i, e := range f.ents {
		if e.vpn != uint64(i) {
			t.Fatalf("entry %d holds %d: sets do not tile the array", i, e.vpn)
		}
	}
}
