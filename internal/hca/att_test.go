package hca

import "testing"

var attSink *attCache

// TestNewATTCacheAllocsIndependentOfSets pins the carved set layout: a
// cache is one struct, one set table and one entry array, however many
// sets it has.
func TestNewATTCacheAllocsIndependentOfSets(t *testing.T) {
	for _, c := range []struct{ entries, ways int }{
		{4, 4},
		{256, 2},
		{1024, 4},
		{16384, 8},
	} {
		allocs := testing.AllocsPerRun(20, func() { attSink = newATTCache(c.entries, c.ways) })
		if allocs != 3 {
			t.Errorf("newATTCache(%d, %d) made %v allocations, want 3", c.entries, c.ways, allocs)
		}
	}
}

// TestATTCacheSetsAreDisjoint checks that the sets carved from one
// backing array do not overlap: a distinct key written to every way of
// every set reads back unchanged.
func TestATTCacheSetsAreDisjoint(t *testing.T) {
	const ways = 4
	c := newATTCache(64, ways)
	for i, set := range c.sets {
		if len(set) != ways || cap(set) != ways {
			t.Fatalf("set %d has len %d cap %d, want %d ways", i, len(set), cap(set), ways)
		}
		for j := range set {
			set[j].key.page = i*ways + j
		}
	}
	for i, set := range c.sets {
		for j := range set {
			if got := set[j].key.page; got != i*ways+j {
				t.Fatalf("set %d way %d holds %d: sets overlap", i, j, got)
			}
		}
	}
}
