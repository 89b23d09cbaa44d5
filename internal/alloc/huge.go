package alloc

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// HugeConfig parameterises the paper's hugepage library. The zero value is
// not usable; DefaultHugeConfig returns the configuration described in
// Section 3. The other fields exist for the design-choice ablations (E8).
type HugeConfig struct {
	// Threshold: requests strictly below it go to libc ("If a request is
	// smaller than 32 kb, the library calls the libc to handle it").
	Threshold uint64
	// ChunkSize is the management granule ("we manage hugepages in chunks
	// with a size of 4 Kilobyte").
	ChunkSize uint64
	// CoalesceOnFree re-enables eager coalescing (the paper's allocator
	// does NOT coalesce on free; flipping this measures why).
	CoalesceOnFree bool
	// InBandMetadata moves management structures into block headers
	// (the paper keeps them "in a cache that is created at initialization
	// time", making freelist traversal hot; flipping this measures why).
	InBandMetadata bool
	// MapBatchPages is how many hugepages the mapping layer requests per
	// growth.
	MapBatchPages int
	// ReservePages is the fork/CoW reserve the mapping layer leaves in
	// the hugetlbfs pool.
	ReservePages int
}

// DefaultHugeConfig is the library exactly as published.
func DefaultHugeConfig() HugeConfig {
	return HugeConfig{
		Threshold:      32 << 10,
		ChunkSize:      4 << 10,
		CoalesceOnFree: false,
		InBandMetadata: false,
		MapBatchPages:  4,
		ReservePages:   16,
	}
}

// Huge is the paper's transparent hugepage allocation library: a strict
// three-tier design. Tier 1 (transparency) intercepts allocation calls
// and routes small requests to libc; tier 2 (mapping) maps hugepages in
// and out of the process, honouring the CoW reserve; tier 3 (management)
// runs an address-ordered first-fit allocator over 4 KiB chunks with its
// metadata in a dedicated cache and no coalescing on free.
//
// Huge is safe for concurrent use (the paper contrasts this with
// libhugepagealloc, which is not thread safe): one lock, shared with the
// libc delegate, covers every call into the address space.
type Huge struct {
	cfg   HugeConfig
	as    *vm.AddressSpace
	small *Libc // tier-1 delegate for requests below the threshold

	// placer, when set, is consulted before every above-threshold
	// placement and notified of outcomes. Installed once at node
	// construction, before any allocation traffic.
	placer Placer

	mu    sync.Mutex       //reprolint:ignore schedonly: paper §3 thread-safety claim, checked by TestHugeThreadSafety
	free  []span           // tier-3 freelist, address-ordered, sizes in bytes (chunk multiples)
	used  map[vm.VA]uint64 // live block sizes in bytes (chunk multiples)
	stats Stats
}

// Placer decides hugepage-vs-base-page placement for above-threshold
// requests and observes placement outcomes. internal/policy implements
// it; the interface lives here so the allocator needs no policy import.
type Placer interface {
	// PlaceHuge reports whether the request should go to hugepages.
	// Returning false routes it to the libc delegate (counted by the
	// policy, not as a pool-pressure fallback).
	PlaceHuge(size uint64) bool
	// Placed reports where an above-threshold block actually landed.
	Placed(va vm.VA, size uint64, huge bool)
	// Freed reports that the block at va was released.
	Freed(va vm.VA)
}

// SetPlacer installs the placement policy hook. Call before any
// allocation traffic; nil disables consultation.
func (h *Huge) SetPlacer(p Placer) { h.placer = p }

// NewHuge builds the library over an address space. The libc delegate is
// created internally, as in the real library ("the eponymous libc function
// symbols are resolved" at initialization).
func NewHuge(as *vm.AddressSpace, syscallTicks simtime.Ticks, cfg HugeConfig) (*Huge, error) {
	if cfg.ChunkSize == 0 || cfg.ChunkSize%machine.SmallPageSize != 0 {
		return nil, fmt.Errorf("%w: chunk size %d", ErrBadSize, cfg.ChunkSize)
	}
	if cfg.MapBatchPages <= 0 {
		cfg.MapBatchPages = 1
	}
	// Reservations compose, so several libraries sharing one Memory each
	// add their own fork/CoW hold instead of clobbering each other's.
	if err := as.Mem().Reserve(cfg.ReservePages); err != nil {
		return nil, fmt.Errorf("alloc: installing fork/CoW reserve: %w", err)
	}
	h := &Huge{
		cfg:   cfg,
		as:    as,
		small: NewLibc(as, syscallTicks),
		used:  make(map[vm.VA]uint64),
	}
	// The address space takes no lock of its own, so the library and
	// its delegate, which both map memory through it, share one.
	h.small.mu = &h.mu
	return h, nil
}

// nodeCost is the per-freelist-node traversal charge: hot when metadata
// lives in the dedicated cache, a cold cache line per node otherwise.
func (h *Huge) nodeCost() simtime.Ticks {
	if h.cfg.InBandMetadata {
		return costNodeColdVisit
	}
	return costNodeCacheVisit
}

// Alloc implements Allocator, following Figure 2 of the paper: small
// request -> libc; enough memory in already-mapped hugepages -> allocate
// there; else map more hugepages; else redirect to libc.
func (h *Huge) Alloc(size uint64) (vm.VA, error) {
	if size == 0 {
		return 0, ErrBadSize
	}
	if size < h.cfg.Threshold {
		return h.small.Alloc(size)
	}
	if p := h.placer; p != nil && !p.PlaceHuge(size) {
		va, err := h.small.Alloc(size)
		if err == nil {
			p.Placed(va, size, false)
		}
		return va, err
	}
	va, huge, err := h.allocLarge(size)
	if err == nil {
		if p := h.placer; p != nil {
			p.Placed(va, size, huge)
		}
	}
	return va, err
}

// allocLarge is the above-threshold path of Figure 2: first fit over
// mapped hugepages, lazy coalesce + retry, tier-2 growth, libc redirect
// when the pool is exhausted. The bool reports hugepage placement.
func (h *Huge) allocLarge(size uint64) (vm.VA, bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.Allocs++
	need := alignUp(size, h.cfg.ChunkSize)

	if va, ok := h.takeFirstFit(need); ok {
		return h.commit(va, need), true, nil
	}
	// Lazy coalescing: only when a request cannot be satisfied do we merge
	// adjacent free areas and retry — the deferred counterpart of the
	// "does not coalesce ... on free() calls" design point.
	if !h.cfg.CoalesceOnFree && h.coalesceAll() {
		if va, ok := h.takeFirstFit(need); ok {
			return h.commit(va, need), true, nil
		}
	}
	// Tier 2: map in more hugepages.
	batch := alignUp(need, machine.HugePageSize)
	if min := uint64(h.cfg.MapBatchPages) * machine.HugePageSize; batch < min {
		batch = min
	}
	gva, err := h.as.MapHuge(batch)
	switch {
	case err == nil:
		h.stats.Syscalls++
		h.stats.Ticks += h.small.syscallTicks
		h.insertFree(span{gva, batch})
		if va, ok := h.takeFirstFit(need); ok {
			return h.commit(va, need), true, nil
		}
		return 0, false, fmt.Errorf("alloc: hugepage growth did not satisfy %d bytes", need)
	case errors.Is(err, phys.ErrOutOfHugepages) || errors.Is(err, phys.ErrReserveHeld):
		// Figure 2: "enough hugepages available? no -> redirect request
		// to libc".
		h.stats.FallbackToSmall++
		h.mu.Unlock()
		va, ferr := h.small.Alloc(size)
		h.mu.Lock()
		if ferr == nil {
			h.stats.FallbackBytes += int64(size)
		}
		return va, false, ferr
	default:
		return 0, false, err
	}
}

// commit books a block as used. Callers hold the lock.
func (h *Huge) commit(va vm.VA, need uint64) vm.VA {
	h.used[va] = need
	h.stats.Ticks += costBinIndex + costHeaderUpdate/3 // metadata cache update
	h.account(va, need, +1)
	return va
}

// takeFirstFit is the address-ordered first-fit scan over the metadata
// cache. Callers hold the lock.
func (h *Huge) takeFirstFit(need uint64) (vm.VA, bool) {
	for i := range h.free {
		h.stats.NodesVisited++
		h.stats.Ticks += h.nodeCost()
		s := h.free[i]
		if s.size < need {
			continue
		}
		if s.size > need {
			h.free[i] = span{s.va + vm.VA(need), s.size - need}
			h.stats.Splits++
			h.stats.Ticks += costSplit / 3 // chunk-granular split is an index update
		} else {
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		return s.va, true
	}
	return 0, false
}

// insertFree inserts a span in address order, coalescing only when the
// configuration asks for it. Callers hold the lock.
func (h *Huge) insertFree(s span) {
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].va >= s.va })
	if h.cfg.CoalesceOnFree {
		if i > 0 && h.free[i-1].va+vm.VA(h.free[i-1].size) == s.va {
			h.free[i-1].size += s.size
			s = h.free[i-1]
			i--
			h.free = append(h.free[:i], h.free[i+1:]...)
			h.stats.Coalesces++
			h.stats.Ticks += costCoalesce
		}
		if i < len(h.free) && s.va+vm.VA(s.size) == h.free[i].va {
			s.size += h.free[i].size
			h.free = append(h.free[:i], h.free[i+1:]...)
			h.stats.Coalesces++
			h.stats.Ticks += costCoalesce
		}
	}
	h.free = append(h.free, span{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = s
	h.stats.Ticks += costBinIndex
}

// coalesceAll merges every adjacent pair in the (already sorted) freelist.
// It reports whether anything merged. Callers hold the lock.
func (h *Huge) coalesceAll() bool {
	merged := false
	out := h.free[:0]
	for _, s := range h.free {
		if n := len(out); n > 0 && out[n-1].va+vm.VA(out[n-1].size) == s.va {
			out[n-1].size += s.size
			h.stats.Coalesces++
			h.stats.Ticks += costCoalesce
			merged = true
			continue
		}
		out = append(out, s)
	}
	h.free = out
	return merged
}

// Free implements Allocator. Small-page blocks route back to the libc
// delegate; hugepage blocks return to the freelist without coalescing.
func (h *Huge) Free(va vm.VA) error {
	if p := h.placer; p != nil {
		p.Freed(va)
	}
	if !vm.IsHugeVA(va) {
		return h.small.Free(va)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.Frees++
	n, ok := h.used[va]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	delete(h.used, va)
	h.insertFree(span{va, n})
	h.account(va, n, -1)
	return nil
}

// account tracks live bytes by placement. Callers hold the lock.
func (h *Huge) account(va vm.VA, n uint64, sign int64) {
	d := int64(n) * sign
	if vm.IsHugeVA(va) {
		h.stats.HugeBytes += d
	} else {
		h.stats.SmallBytes += d
	}
	h.stats.LiveBytes += d
	if h.stats.LiveBytes > h.stats.PeakLive {
		h.stats.PeakLive = h.stats.LiveBytes
	}
}

// UsableSize implements Allocator.
func (h *Huge) UsableSize(va vm.VA) uint64 {
	if !vm.IsHugeVA(va) {
		return h.small.UsableSize(va)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.used[va]
}

// Stats implements Allocator, merging the libc delegate's counters so the
// caller sees one library, as the application would.
func (h *Huge) Stats() Stats {
	h.mu.Lock()
	s := h.stats
	h.mu.Unlock()
	d := h.small.Stats()
	s.Allocs += d.Allocs
	s.Frees += d.Frees
	s.Ticks += d.Ticks
	s.NodesVisited += d.NodesVisited
	s.Splits += d.Splits
	s.Coalesces += d.Coalesces
	s.Syscalls += d.Syscalls
	s.SmallBytes += d.SmallBytes
	s.HugeBytes += d.HugeBytes // a morecore-style delegate can place huge-side bytes too
	s.FallbackToSmall += d.FallbackToSmall
	s.FallbackBytes += d.FallbackBytes
	s.LiveBytes += d.LiveBytes
	if s.LiveBytes > s.PeakLive {
		s.PeakLive = s.LiveBytes
	}
	return s
}

// MapBSS places a BSS-sized segment into hugepages at startup — the
// linker-script + constructor trick the paper uses for the NAS runs ("we
// did not only preload our library ... but also used a linker script and
// a constructor function ... to map this segment into hugepages at
// startup time"). The segment is owned by the caller and never freed.
func (h *Huge) MapBSS(size uint64) (vm.VA, bool, error) {
	h.mu.Lock()
	va, huge, err := h.as.MapHugeOrSmall(size)
	if err != nil {
		h.mu.Unlock()
		return 0, false, err
	}
	mapped := alignUp(size, machine.SmallPageSize)
	if huge {
		mapped = alignUp(size, machine.HugePageSize)
	}
	h.stats.Syscalls++
	h.stats.Ticks += h.small.syscallTicks
	if !huge {
		h.stats.FallbackToSmall++
		h.stats.FallbackBytes += int64(mapped)
	}
	h.account(va, mapped, +1)
	h.used[va] = mapped
	h.mu.Unlock()
	if p := h.placer; p != nil {
		p.Placed(va, size, huge)
	}
	return va, huge, nil
}
