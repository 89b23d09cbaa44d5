package hca

import (
	"testing"
	"unsafe"
)

var attSink attCache

// TestNewATTCacheAllocatesNoEntries checks that building a cache
// allocates nothing, however many sets it has, and that shooting down
// or force-evicting from an untouched cache allocates nothing either.
func TestNewATTCacheAllocatesNoEntries(t *testing.T) {
	for _, c := range []struct{ entries, ways int }{
		{4, 4},
		{256, 2},
		{1024, 4},
		{16384, 8},
	} {
		if allocs := testing.AllocsPerRun(20, func() { attSink = newATTCache(c.entries, c.ways) }); allocs != 0 {
			t.Errorf("newATTCache(%d, %d) made %v allocations, want 0", c.entries, c.ways, allocs)
		}
		a := newATTCache(c.entries, c.ways)
		allocs := testing.AllocsPerRun(20, func() {
			a.invalidate(7)
			if a.evictEntry(7, 3) {
				t.Fatal("an untouched cache evicted an entry")
			}
		})
		if allocs != 0 || a.ents != nil {
			t.Errorf("invalidate/evictEntry on an untouched (%d, %d) cache made %v allocations", c.entries, c.ways, allocs)
		}
	}
}

// TestATTFirstAccessAllocatesOneArray checks that the first lookup
// allocates exactly one entry array, sized to the geometry, and that
// later lookups allocate nothing.
func TestATTFirstAccessAllocatesOneArray(t *testing.T) {
	var c attCache
	allocs := testing.AllocsPerRun(20, func() {
		c = newATTCache(1024, 4)
		c.access(1, 0)
	})
	if allocs != 1 {
		t.Fatalf("newATTCache plus one access made %v allocations, want 1", allocs)
	}
	if len(c.ents) != 1024 {
		t.Fatalf("entry array holds %d entries, want 1024", len(c.ents))
	}
	page := 0
	if allocs := testing.AllocsPerRun(100, func() { c.access(1, page); page++ }); allocs != 0 {
		t.Fatalf("a warm access made %v allocations", allocs)
	}
}

// TestATTCacheSetsAreDisjoint checks that the sets laid over the flat
// entry array do not overlap and together tile it: a distinct page
// written to every way of every set reads back unchanged.
func TestATTCacheSetsAreDisjoint(t *testing.T) {
	if sz := unsafe.Sizeof(attEntry{}); sz != 24 {
		t.Fatalf("attEntry is %d bytes, want 24", sz)
	}
	const ways = 4
	c := newATTCache(64, ways)
	for s := 0; s < c.nsets; s++ {
		set := c.setAt(s)
		if len(set) != ways || cap(set) != ways {
			t.Fatalf("set %d has len %d cap %d, want %d ways", s, len(set), cap(set), ways)
		}
		for w := range set {
			set[w].page = s*ways + w
		}
	}
	for s := 0; s < c.nsets; s++ {
		for w, e := range c.setAt(s) {
			if e.page != s*ways+w {
				t.Fatalf("set %d way %d holds %d: sets overlap", s, w, e.page)
			}
		}
	}
	for i, e := range c.ents {
		if e.page != i {
			t.Fatalf("entry %d holds %d: sets do not tile the array", i, e.page)
		}
	}
}
