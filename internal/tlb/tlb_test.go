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
	if got := d.Small.Stats().Misses + d.Large.Stats().Misses; got != 2 {
		t.Fatalf("total misses = %d, want 2", got)
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
	if cpu.TLB2M.Entries*machine.HugePageSize <= cpu.TLB4K.Entries*machine.SmallPageSize {
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
// array do not overlap and together cover it: a distinct page number
// written to every way of every set reads back unchanged.
func TestFileSetsAreDisjoint(t *testing.T) {
	const ways, sets = 4, 16
	f := NewFile(machine.TLBGeometry{Entries: ways * sets, Ways: ways})
	for s := uint64(0); s < sets; s++ {
		set := f.set(s)
		if sz := unsafe.Sizeof(set[0]); sz != 8 {
			t.Fatalf("a way is %d bytes, want 8", sz)
		}
		if len(set) != ways || cap(set) != ways {
			t.Fatalf("set %d has len %d cap %d, want %d ways", s, len(set), cap(set), ways)
		}
		for w := range set {
			set[w] = s*ways + uint64(w)
		}
	}
	for s := uint64(0); s < sets; s++ {
		for w, vpn := range f.set(s) {
			if vpn != s*ways+uint64(w) {
				t.Fatalf("set %d way %d holds %d: sets overlap", s, w, vpn)
			}
		}
	}
	for i, vpn := range f.ents {
		if vpn != uint64(i) {
			t.Fatalf("entry %d holds %d: sets do not tile the array", i, vpn)
		}
	}
}

// TestShiftsMatchPageSizes checks the page shifts DTLB.File hands out
// against the page sizes.
func TestShiftsMatchPageSizes(t *testing.T) {
	if 1<<smallShift != machine.SmallPageSize || 1<<hugeShift != machine.HugePageSize {
		t.Fatalf("shifts %d/%d do not match page sizes %d/%d",
			smallShift, hugeShift, machine.SmallPageSize, machine.HugePageSize)
	}
	d := New(&machine.Opteron().CPU)
	if f, shift := d.File(vm.Small); f != d.Small || shift != smallShift {
		t.Fatal("File(Small) is not the small-page file")
	}
	if f, shift := d.File(vm.Huge); f != d.Large || shift != hugeShift {
		t.Fatal("File(Huge) is not the hugepage file")
	}
}

// lruFile is the age-stamp LRU file the recency-ordered File replaced,
// kept as its oracle. Each way holds a page number and the tick of its
// last use; age 0 marks an empty way, and a miss replaces the first
// empty way or else the one with the oldest stamp.
type lruFile struct {
	ways  int
	ents  []lruEntry
	tick  uint64
	stats FileStats
}

type lruEntry struct {
	vpn uint64
	age uint64
}

func newLRUFile(geo machine.TLBGeometry) *lruFile {
	return &lruFile{ways: geo.Ways, ents: make([]lruEntry, geo.Entries)}
}

func (f *lruFile) Access(vpn uint64) bool {
	f.tick++
	lo := int(vpn%uint64(len(f.ents)/f.ways)) * f.ways
	set := f.ents[lo : lo+f.ways]
	for i := range set {
		if set[i].age != 0 && set[i].vpn == vpn {
			set[i].age = f.tick
			f.stats.Hits++
			return true
		}
	}
	victim := 0
	for i := range set {
		if set[i].age == 0 {
			victim = i
			break
		}
		if set[i].age < set[victim].age {
			victim = i
		}
	}
	set[victim] = lruEntry{vpn: vpn, age: f.tick}
	f.stats.Misses++
	return false
}

func (f *lruFile) InvalidateRange(lo, hi uint64) {
	for i := range f.ents {
		if f.ents[i].age != 0 && f.ents[i].vpn >= lo && f.ents[i].vpn < hi {
			f.ents[i] = lruEntry{}
		}
	}
}

func (f *lruFile) Flush() { clear(f.ents) }

// diffGeometries are the geometries File is checked on against the
// oracle: every file of the three machines (544/4 and 8/4, 64/4, 512/4
// and 16/4), a fully associative file, a direct-mapped one and an odd
// one. The fuzz corpus picks geometries by index, so new ones go last.
var diffGeometries = []machine.TLBGeometry{
	{Entries: 544, Ways: 4},
	{Entries: 8, Ways: 4},
	{Entries: 64, Ways: 4},
	{Entries: 16, Ways: 4},
	{Entries: 8, Ways: 8},
	{Entries: 32, Ways: 1},
	{Entries: 12, Ways: 3},
	{Entries: 512, Ways: 4},
}

// pair drives a File and its oracle in step and fails on the first
// access, or Stats, on which they differ.
type pair struct {
	t    *testing.T
	geo  machine.TLBGeometry
	got  *File
	want *lruFile
	step int
}

func newPair(t *testing.T, geo machine.TLBGeometry) *pair {
	return &pair{t: t, geo: geo, got: NewFile(geo), want: newLRUFile(geo)}
}

func (p *pair) access(vpn uint64) {
	p.step++
	if got, want := p.got.Access(vpn), p.want.Access(vpn); got != want {
		p.t.Fatalf("%+v step %d: Access(%d) hit=%v, oracle %v", p.geo, p.step, vpn, got, want)
	}
	if got, want := p.got.Stats(), p.want.stats; got != want {
		p.t.Fatalf("%+v step %d: stats %+v, oracle %+v", p.geo, p.step, got, want)
	}
}

func (p *pair) invalidate(lo, hi uint64) {
	p.step++
	p.got.InvalidateRange(lo, hi)
	p.want.InvalidateRange(lo, hi)
}

func (p *pair) flush() {
	p.step++
	p.got.Flush()
	p.want.Flush()
}

// TestFileMatchesLRU runs seeded sequences of accesses, range
// shootdowns and flushes on every geometry and checks each access's hit
// or miss, and the counters, against the age-stamp oracle.
func TestFileMatchesLRU(t *testing.T) {
	const steps = 1 << 21
	for _, geo := range diffGeometries {
		p := newPair(t, geo)
		nsets := uint64(geo.Entries / geo.Ways)
		// Page numbers over three times the file's reach, so sets both
		// hit and evict; about one access in a thousand lands far away.
		span := 3 * uint64(geo.Entries)
		x := uint64(0x9E3779B97F4A7C15) ^ uint64(geo.Entries)<<8 ^ uint64(geo.Ways)
		for range steps {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			switch r := x % 4096; {
			case r == 0:
				p.flush()
			case r < 8:
				lo := x >> 12 % span
				p.invalidate(lo, lo+(x>>32)%(2*nsets+1))
			case r < 12:
				p.access(x >> 12)
			default:
				p.access(x >> 12 % span)
			}
		}
	}
}

// FuzzFileMatchesLRU checks File against the age-stamp oracle on
// arbitrary operation sequences. The first byte picks a geometry; each
// later byte b is one operation:
//   - b < 0xF0: access page fuzzVPN(b);
//   - 0xF0 <= b < 0xFF: shoot down (b-0xEF) sets' worth of pages
//     starting at fuzzVPN of the next byte;
//   - b == 0xFF: flush.
func FuzzFileMatchesLRU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geo := diffGeometries[int(data[0])%len(diffGeometries)]
		nsets := uint64(geo.Entries / geo.Ways)
		// fuzzVPN folds a byte onto eight sets, so a few bytes already
		// overflow a set's ways.
		fuzzVPN := func(b byte) uint64 { return uint64(b%8) + uint64(b/8)*nsets }
		p := newPair(t, geo)
		ops := data[1:]
		for i := 0; i < len(ops); i++ {
			switch b := ops[i]; {
			case b == 0xFF:
				p.flush()
			case b >= 0xF0:
				lo := uint64(0)
				if i+1 < len(ops) {
					i++
					lo = fuzzVPN(ops[i])
				}
				p.invalidate(lo, lo+uint64(b-0xEF)*nsets)
			default:
				p.access(fuzzVPN(b))
			}
		}
	})
}
