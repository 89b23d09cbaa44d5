package hca

// attCache is the on-adapter address translation table: a set-associative
// cache over MTT entries, keyed by (lkey, page index). A miss forces the
// adapter to fetch the translation from host memory across the IO bus,
// which is the effect behind the paper's Xeon result: pushing 2 MiB
// translations (1/512th the entries) raises SendRecv bandwidth by ≈ 6 %
// on the PCI-X system, where those fetches compete with payload DMA.

type attKey struct {
	lkey uint32
	page int
}

type attEntry struct {
	valid bool
	// poisoned marks a translation dropped by injected forced eviction:
	// the next access to this key misses (the adapter refetches across
	// the bus) and clears the mark. The slot itself stays occupied —
	// freeing it would change which victim a later full-set miss picks,
	// coupling every translation's fate in the set to the real-time
	// interleaving of concurrent DMA streams, while the refetch itself
	// is local to this key and therefore interleaving-invariant.
	poisoned bool
	key      attKey
	age      uint64
}

type attCache struct {
	sets [][]attEntry
	tick uint64
}

func newATTCache(entries, ways int) *attCache {
	if ways <= 0 {
		ways = 1
	}
	if entries < ways {
		entries = ways
	}
	// Every set is a run of one backing array, so building a cache costs
	// the same three allocations whatever its size.
	nsets := entries / ways
	ents := make([]attEntry, nsets*ways)
	c := &attCache{sets: make([][]attEntry, nsets)}
	for i := range c.sets {
		c.sets[i] = ents[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

// access looks up (lkey,page), installing it on miss; reports hit.
func (c *attCache) access(lkey uint32, page int) bool {
	c.tick++
	k := attKey{lkey, page}
	h := (uint64(lkey)*0x9E3779B97F4A7C15 + uint64(page)*0xBF58476D1CE4E5B9)
	set := c.sets[h%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].key == k {
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
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].age < set[victim].age {
			victim = i
		}
	}
	set[victim] = attEntry{valid: true, key: k, age: c.tick}
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
	k := attKey{lkey, page}
	h := (uint64(lkey)*0x9E3779B97F4A7C15 + uint64(page)*0xBF58476D1CE4E5B9)
	set := c.sets[h%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].key == k {
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
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].key.lkey == lkey {
				set[i] = attEntry{}
			}
		}
	}
}
