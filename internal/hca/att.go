package hca

// attCache is the on-adapter address translation table: a set-associative
// cache over MTT entries, keyed by (lkey, page index). A miss forces the
// adapter to fetch the translation from host memory across the IO bus,
// which is the effect behind the paper's Xeon result: pushing 2 MiB
// translations (1/512th the entries) raises SendRecv bandwidth by ≈ 6 %
// on the PCI-X system, where those fetches compete with payload DMA.

// attEntry is one cached translation, 24 bytes. age is the LRU stamp:
// it is set from the cache's tick, which is never 0 once an access has
// begun, so age 0 marks an empty slot.
type attEntry struct {
	lkey uint32
	// poisoned marks a translation dropped by injected forced eviction:
	// the next access to this key misses (the adapter refetches across
	// the bus) and clears the mark. The slot itself stays occupied —
	// freeing it would change which victim a later full-set miss picks,
	// coupling every translation's fate in the set to the real-time
	// interleaving of concurrent DMA streams, while the refetch itself
	// is local to this key and therefore interleaving-invariant.
	poisoned bool
	page     int
	age      uint64
}

// attCache keeps its entries in one flat array, set s holding
// ents[s*ways : (s+1)*ways]. The array is allocated on the first access:
// an adapter that never translates costs only the header.
type attCache struct {
	ents        []attEntry
	nsets, ways int
	tick        uint64
}

func newATTCache(entries, ways int) attCache {
	if ways <= 0 {
		ways = 1
	}
	if entries < ways {
		entries = ways
	}
	return attCache{nsets: entries / ways, ways: ways}
}

// set returns the ways (lkey,page) hashes to.
func (c *attCache) set(lkey uint32, page int) []attEntry {
	h := (uint64(lkey)*0x9E3779B97F4A7C15 + uint64(page)*0xBF58476D1CE4E5B9)
	return c.setAt(int(h % uint64(c.nsets)))
}

// setAt returns set s, allocating the entry array on first use.
func (c *attCache) setAt(s int) []attEntry {
	if c.ents == nil {
		c.ents = make([]attEntry, c.nsets*c.ways)
	}
	lo := s * c.ways
	return c.ents[lo : lo+c.ways : lo+c.ways]
}

// access looks up (lkey,page), installing it on miss; reports hit.
func (c *attCache) access(lkey uint32, page int) bool {
	c.tick++
	set := c.set(lkey, page)
	for i := range set {
		if set[i].age != 0 && set[i].lkey == lkey && set[i].page == page {
			set[i].age = c.tick
			if set[i].poisoned {
				set[i].poisoned = false
				return false // forced eviction: refetch, refresh in place
			}
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
	set[victim] = attEntry{lkey: lkey, page: page, age: c.tick}
	return false
}

// evictEntry drops the one cached translation for (lkey,page) if
// present and not already dropped, reporting whether anything was
// dropped. The fault injector uses it to force a refetch: the effect is
// local to that entry — the access that follows misses and refreshes it
// in place, exactly where a hit would have aged it, leaving the set's
// occupancy untouched — so concurrent accessors of other entries see
// identical outcomes regardless of interleaving.
func (c *attCache) evictEntry(lkey uint32, page int) bool {
	if c.ents == nil {
		return false
	}
	set := c.set(lkey, page)
	for i := range set {
		if set[i].age != 0 && set[i].lkey == lkey && set[i].page == page {
			if set[i].poisoned {
				return false
			}
			set[i].poisoned = true
			return true
		}
	}
	return false
}

// invalidate drops every entry belonging to one memory region (MR
// deregistration shoots its translations down).
func (c *attCache) invalidate(lkey uint32) {
	for i := range c.ents {
		if c.ents[i].age != 0 && c.ents[i].lkey == lkey {
			c.ents[i] = attEntry{}
		}
	}
}
