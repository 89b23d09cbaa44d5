// Package vm models one process's virtual address space: page tables for
// 4 KiB and 2 MiB pages, mmap/brk-style region management, address
// translation, and page pinning.
//
// This is the substrate under memory registration. Registering a buffer
// for InfiniBand means (paper, Section 3): (1) pin every page, (2)
// translate every virtual page to a physical address, (3) push the
// translations to the NIC. Steps 1 and 2 are implemented here; step 3 in
// internal/verbs. The number of pages — hence the cost — depends on how
// the buffer was placed, which is the whole point of the paper.
package vm

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/trace"
)

// VA is a virtual byte address within one address space.
type VA uint64

// Page size classes.
type PageClass int

const (
	Small PageClass = iota // 4 KiB
	Huge                   // 2 MiB
)

// Size returns the byte size of the page class.
func (c PageClass) Size() uint64 {
	if c == Huge {
		return machine.HugePageSize
	}
	return machine.SmallPageSize
}

func (c PageClass) String() string {
	if c == Huge {
		return "2M"
	}
	return "4K"
}

// Errors.
var (
	ErrUnmapped     = errors.New("vm: address not mapped")
	ErrNotPinned    = errors.New("vm: page not pinned")
	ErrBadUnmap     = errors.New("vm: unmap does not match a mapping")
	ErrPinnedUnmap  = errors.New("vm: cannot unmap pinned pages")
	ErrMixedClasses = errors.New("vm: range spans mixed page classes")
	ErrOverlap      = errors.New("vm: copy ranges overlap")
)

// pte is one page-table entry, 16 bytes. Entries are values in their
// region's page slice, which gives them their page class and virtual
// address.
type pte struct {
	frame phys.Frame // first frame of the page
	pins  int32
	// split marks a small pte carved out of a demoted hugepage. The 2 MiB
	// physical run stays in place (a THP-style split rebuilds the page
	// table, it does not migrate data), so the run returns to the hugepage
	// pool as one unit: unmap frees it once, via the first subpage.
	// Demote gives each split hugepage a region of its own whose subpage
	// i holds frame base+i for as long as it stays split, so the first
	// subpage's frame is the run's base.
	split bool
}

// region is one mapping: its extent, page class and page-table entries,
// one per page in address order. A hugepage region that Demote has split
// is several regions, each with its own entries.
type region struct {
	start VA
	size  uint64
	class PageClass
	ptes  []pte
}

func (r *region) contains(va VA) bool { return va >= r.start && uint64(va-r.start) < r.size }

// Virtual address layout. Hugepage mappings live in their own window so a
// single lookup classifies an address; the layout mirrors the split
// brk-heap / mmap / hugetlbfs layout of a Linux process.
const (
	brkBase   VA = 0x0000_1000_0000
	brkLimit  VA = 0x0FFF_F000_0000
	mmapBase  VA = 0x2000_0000_0000
	mmapLimit VA = 0x3FFF_F000_0000
	hugeBase  VA = 0x4000_0000_0000
	hugeLimit VA = 0x7FFF_F000_0000
)

// AddressSpace is one simulated process image. It takes no lock: every
// caller is a task of one internal/sched scheduler, which runs exactly
// one task at a time.
type AddressSpace struct {
	mem *phys.Memory

	brk      VA
	mmapNext VA
	hugeNext VA

	// regions is the page table: every mapping, sorted by start address
	// (mappings never overlap; zero-length ones sort before a non-empty
	// one at the same address). last caches the index of the region the
	// previous lookup hit.
	regions []region
	last    int

	stats Stats

	// cur, when set, stamps mapping decisions as instant trace markers at
	// the position the owning rank last set. Nil = no tracing.
	cur *trace.Cursor
}

// Stats counts translation activity for node telemetry and tests.
type Stats struct {
	MappedSmall       int64 // gauge: currently mapped small pages
	MappedHuge        int64 // gauge: currently mapped hugepages
	Pins, Unpins      int64
	Translations      int64
	HugeFallbacks     int64 // MapHuge requests satisfied with small pages
	HugeFallbackBytes int64 // cumulative bytes those fallbacks mapped
	Demotions         int64 // hugepages split into base pages in place
	DemotedBytes      int64 // cumulative bytes those demotions covered
}

// New creates an empty address space backed by the node's physical memory.
func New(mem *phys.Memory) *AddressSpace {
	return &AddressSpace{
		mem:      mem,
		brk:      brkBase,
		mmapNext: mmapBase,
		hugeNext: hugeBase,
	}
}

// Mem exposes the backing physical memory (for the DMA engine).
func (as *AddressSpace) Mem() *phys.Memory { return as.mem }

// SetTrace attaches a trace cursor; mapping events (map.small, map.huge,
// map.fallback, sbrk, unmap) stamp at its current position. The address
// space has no clock of its own, so the owner moves the cursor at its
// entry points.
func (as *AddressSpace) SetTrace(cur *trace.Cursor) {
	as.cur = cur
}

func roundUp(n, to uint64) uint64 { return (n + to - 1) / to * to }

// mapSmall allocates frames for the small pages of [va, va+size)
// and returns their entries. On failure every frame it took goes back.
func (as *AddressSpace) mapSmall(va VA, size uint64) ([]pte, error) {
	if uint64(va)%machine.SmallPageSize != 0 {
		return nil, fmt.Errorf("vm: unaligned small mapping at %#x", va)
	}
	ptes := make([]pte, roundUp(size, machine.SmallPageSize)/machine.SmallPageSize)
	for i := range ptes {
		f, err := as.mem.AllocFrame()
		if err != nil {
			for _, p := range ptes[:i] {
				_ = as.mem.FreeFrame(p.frame)
			}
			as.stats.MappedSmall -= int64(i)
			return nil, err
		}
		ptes[i].frame = f
		as.stats.MappedSmall++
	}
	return ptes, nil
}

// addRegion inserts r into the sorted region table, after any
// region starting at the same address.
func (as *AddressSpace) addRegion(r region) {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].start > r.start })
	as.regions = slices.Insert(as.regions, i, r)
}

// Sbrk grows the heap by size bytes (rounded up to whole small pages) and
// returns the address of the new block, like the classic Unix sbrk. The
// libc-model allocator draws its arena from here.
func (as *AddressSpace) Sbrk(size uint64) (VA, error) {
	start := as.brk
	grown := roundUp(size, machine.SmallPageSize)
	if start+VA(grown) > brkLimit {
		return 0, phys.ErrOutOfMemory
	}
	ptes, err := as.mapSmall(start, grown)
	if err != nil {
		return 0, err
	}
	as.brk += VA(grown)
	as.addRegion(region{start, grown, Small, ptes})
	if as.cur.Enabled() {
		as.cur.Event(trace.LVM, "sbrk", trace.I64("bytes", int64(grown)))
	}
	return start, nil
}

// MapSmall creates an anonymous small-page mapping of the given size and
// returns its base address (the mmap path).
func (as *AddressSpace) MapSmall(size uint64) (VA, error) {
	sz := roundUp(size, machine.SmallPageSize)
	start := as.mmapNext
	if start+VA(sz) > mmapLimit {
		return 0, phys.ErrOutOfMemory
	}
	ptes, err := as.mapSmall(start, sz)
	if err != nil {
		return 0, err
	}
	as.mmapNext += VA(sz)
	as.addRegion(region{start, sz, Small, ptes})
	if as.cur.Enabled() {
		as.cur.Event(trace.LVM, "map.small", trace.I64("bytes", int64(sz)))
	}
	return start, nil
}

// MapHuge creates a hugetlbfs mapping of the given size (rounded up to
// whole hugepages) and returns its 2 MiB-aligned base address. It fails if
// the hugepage pool cannot supply the pages; callers that want the paper's
// graceful degradation use MapHugeOrSmall.
func (as *AddressSpace) MapHuge(size uint64) (VA, error) {
	sz := roundUp(size, machine.HugePageSize)
	n := sz / machine.HugePageSize
	start := as.hugeNext
	if start+VA(sz) > hugeLimit {
		return 0, phys.ErrOutOfMemory
	}
	ptes := make([]pte, n)
	for i := range ptes {
		f, err := as.mem.AllocHuge()
		if err != nil {
			for _, p := range ptes[:i] {
				_ = as.mem.FreeHuge(p.frame)
			}
			return 0, err
		}
		ptes[i].frame = f
	}
	as.stats.MappedHuge += int64(n)
	as.hugeNext += VA(sz)
	as.addRegion(region{start, sz, Huge, ptes})
	if as.cur.Enabled() {
		as.cur.Event(trace.LVM, "map.huge",
			trace.I64("bytes", int64(sz)), trace.I64("pages", int64(n)))
	}
	return start, nil
}

// MapHugeOrSmall tries a hugepage mapping and falls back to small pages
// when the pool is exhausted (failure-injection path: the paper's library
// redirects to libc when "enough hugepages available?" is no). The bool
// result reports whether hugepages were used.
func (as *AddressSpace) MapHugeOrSmall(size uint64) (VA, bool, error) {
	va, err := as.MapHuge(size)
	if err == nil {
		return va, true, nil
	}
	if !errors.Is(err, phys.ErrOutOfHugepages) && !errors.Is(err, phys.ErrReserveHeld) {
		return 0, false, err
	}
	as.stats.HugeFallbacks++
	sz := roundUp(size, machine.SmallPageSize)
	start := as.mmapNext
	if start+VA(sz) > mmapLimit {
		return 0, false, phys.ErrOutOfMemory
	}
	ptes, err := as.mapSmall(start, sz)
	if err != nil {
		return 0, false, err
	}
	as.mmapNext += VA(sz)
	as.addRegion(region{start, sz, Small, ptes})
	as.stats.HugeFallbackBytes += int64(sz)
	if as.cur.Enabled() {
		as.cur.Event(trace.LVM, "map.fallback", trace.I64("bytes", int64(sz)))
	}
	return start, false, nil
}

// Unmap removes a mapping previously returned by MapSmall/MapHuge/
// MapHugeOrSmall. The (start,size) pair must exactly match the original
// request rounded to page size; a hugepage mapping that Demote has since
// carved into pieces still unmaps as the original (start,size) whole.
// Pinned pages refuse to unmap.
func (as *AddressSpace) Unmap(start VA, size uint64) error {
	lo, n := as.unmapRun(start, size)
	if n == 0 {
		return ErrBadUnmap
	}
	// Refuse if any page of any piece is pinned, before touching anything.
	for _, r := range as.regions[lo : lo+n] {
		if r.pinned() {
			return ErrPinnedUnmap
		}
	}
	var total uint64
	for _, r := range as.regions[lo : lo+n] {
		as.freeRegion(r)
		total += r.size
	}
	as.regions = slices.Delete(as.regions, lo, lo+n)
	if as.cur.Enabled() {
		as.cur.Event(trace.LVM, "unmap", trace.I64("bytes", int64(total)))
	}
	return nil
}

// unmapRun resolves an unmap request to the run of regions
// [lo, lo+n) it covers: the single exact-match region, or — for a
// demoted hugepage mapping — the address-contiguous run of split pieces
// partitioning the original extent. n = 0 means no match.
func (as *AddressSpace) unmapRun(start VA, size uint64) (lo, n int) {
	for i, r := range as.regions {
		if r.start == start && (r.size == roundUp(size, r.class.Size()) || size == r.size) {
			return i, 1
		}
	}
	if !IsHugeVA(start) {
		return 0, 0
	}
	target := roundUp(size, machine.HugePageSize)
	for i, r := range as.regions {
		if r.start != start {
			continue
		}
		var covered uint64
		for j := i; j < len(as.regions); j++ {
			if as.regions[j].start != start+VA(covered) {
				break
			}
			covered += as.regions[j].size
			if covered == target {
				return i, j - i + 1
			}
			if covered > target {
				break
			}
		}
		return 0, 0
	}
	return 0, 0
}

// pinned reports whether any page of r is pinned.
func (r region) pinned() bool {
	for _, p := range r.ptes {
		if p.pins > 0 {
			return true
		}
	}
	return false
}

// freeRegion releases r's frames.
func (as *AddressSpace) freeRegion(r region) {
	if r.class == Huge {
		for _, p := range r.ptes {
			_ = as.mem.FreeHuge(p.frame)
		}
		as.stats.MappedHuge -= int64(len(r.ptes))
		return
	}
	for i, p := range r.ptes {
		switch {
		case !p.split:
			_ = as.mem.FreeFrame(p.frame)
		case i == 0:
			// Subpages of a demoted hugepage share one physical 2 MiB
			// run; free it once, at its base subpage.
			_ = as.mem.FreeHuge(p.frame)
		}
	}
	as.stats.MappedSmall -= int64(len(r.ptes))
}

// Demote splits every hugepage lying fully inside [va, va+size) into 512
// base-page mappings, in place: the 2 MiB physical run is kept (a real
// THP split rebuilds the page table without migrating data) and returns
// to the hugepage pool only when the region is eventually unmapped.
// Pinned pages are skipped — DMA-registered memory must keep its
// translations stable. It returns the number of hugepages demoted.
// Callers own the TLB shootdown for the split range.
func (as *AddressSpace) Demote(va VA, size uint64) (int, error) {
	lo := VA(roundUp(uint64(va), machine.HugePageSize))
	hi := VA((uint64(va) + size) / machine.HugePageSize * machine.HugePageSize)
	if !IsHugeVA(lo) || hi <= lo {
		return 0, nil
	}
	const subpages = machine.HugePageSize / machine.SmallPageSize
	demoted := 0
	for h := lo; h < hi; h += VA(machine.HugePageSize) {
		i := as.find(h)
		if i < 0 || as.regions[i].class != Huge {
			continue
		}
		k := int(uint64(h-as.regions[i].start) / machine.HugePageSize)
		p := as.regions[i].ptes[k]
		if p.pins > 0 {
			continue
		}
		split := make([]pte, subpages)
		for j := range split {
			split[j] = pte{frame: p.frame + phys.Frame(j), split: true}
		}
		as.splitRegion(i, k, split)
		as.stats.MappedHuge--
		as.stats.MappedSmall += subpages
		as.stats.Demotions++
		as.stats.DemotedBytes += machine.HugePageSize
		demoted++
	}
	if demoted > 0 && as.cur.Enabled() {
		as.cur.Event(trace.LVM, "demote",
			trace.I64("pages", int64(demoted)),
			trace.I64("bytes", int64(demoted)*machine.HugePageSize))
	}
	return demoted, nil
}

// splitRegion replaces hugepage k of the Huge region at index i
// with a standalone Small region holding the split entries, so unmap
// bookkeeping keeps matching page classes after a demotion. The pieces
// before and after keep their entries in the original array.
func (as *AddressSpace) splitRegion(i, k int, split []pte) {
	r := as.regions[i]
	h := r.start + VA(uint64(k)*machine.HugePageSize)
	repl := make([]region, 0, 3)
	if k > 0 {
		repl = append(repl, region{r.start, uint64(k) * machine.HugePageSize, Huge, r.ptes[:k:k]})
	}
	repl = append(repl, region{h, machine.HugePageSize, Small, split})
	if k+1 < len(r.ptes) {
		repl = append(repl, region{h + VA(machine.HugePageSize), r.size - uint64(k+1)*machine.HugePageSize, Huge, r.ptes[k+1:]})
	}
	as.regions = slices.Replace(as.regions, i, i+1, repl...)
}

// find returns the index of the region containing va, or -1.
func (as *AddressSpace) find(va VA) int {
	if as.last < len(as.regions) && as.regions[as.last].contains(va) {
		return as.last
	}
	// The last region starting at or below va is the only candidate.
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].start > va }) - 1
	if i < 0 || !as.regions[i].contains(va) {
		return -1
	}
	as.last = i
	return i
}

// lookup finds the entry covering va and its page class. The pointer
// indexes the region's entry slice: callers drop it before the region
// table next changes.
func (as *AddressSpace) lookup(va VA) (*pte, PageClass, error) {
	i := as.find(va)
	if i < 0 {
		return nil, Small, ErrUnmapped
	}
	r := &as.regions[i]
	return &r.ptes[uint64(va-r.start)/r.class.Size()], r.class, nil
}

// Translate resolves a virtual address to (physical address, page class).
func (as *AddressSpace) Translate(va VA) (phys.Addr, PageClass, error) {
	pa, class, err := as.translateQuiet(va)
	if err == nil {
		as.stats.Translations++
	}
	return pa, class, err
}

// Page describes one page of a translated range.
type Page struct {
	VA    VA
	PA    phys.Addr
	Class PageClass
}

// walk calls fn, in address order, for every page covering
// [va, va+length) with length > 0, and returns their class. It stops at
// the first page that is unmapped (ErrUnmapped) or of another class than
// the first (ErrMixedClasses), or at fn's first error. A nil fn only
// checks the range.
func (as *AddressSpace) walk(va VA, length uint64, fn func(a VA, p *pte) error) (PageClass, error) {
	i := as.find(va)
	if i < 0 {
		return Small, fmt.Errorf("%w: %#x", ErrUnmapped, uint64(va))
	}
	class := as.regions[i].class
	ps := class.Size()
	end := uint64(va) + length
	for a := uint64(va) / ps * ps; a < end; i++ {
		if i >= len(as.regions) || !as.regions[i].contains(VA(a)) {
			if i = as.find(VA(a)); i < 0 {
				return class, fmt.Errorf("%w: %#x", ErrUnmapped, a)
			}
		}
		r := &as.regions[i]
		if r.class != class {
			return class, ErrMixedClasses
		}
		for k := (a - uint64(r.start)) / ps; k < uint64(len(r.ptes)) && a < end; k, a = k+1, a+ps {
			if fn != nil {
				if err := fn(VA(a), &r.ptes[k]); err != nil {
					return class, err
				}
			}
		}
	}
	return class, nil
}

// Pages appends the pages covering [va, va+len), in address order, to
// dst and returns the extended slice, like Pin; a caller that looks up
// pages often passes the same buffer back each time. All the pages have
// the same class; a range straddling the small and huge windows returns
// ErrMixedClasses (user buffers never do). On an error dst comes back
// as passed.
func (as *AddressSpace) Pages(dst []Page, va VA, length uint64) ([]Page, error) {
	if length == 0 {
		return dst, nil
	}
	class, err := as.walk(va, length, nil)
	if err != nil {
		return dst, err
	}
	pages := slices.Grow(dst, pageCount(va, length, class))
	// The range was checked above and fn never fails, so neither can
	// this walk.
	_, _ = as.walk(va, length, func(a VA, p *pte) error {
		pages = append(pages, Page{VA: a, PA: phys.Addr(uint64(p.frame) * machine.SmallPageSize), Class: class})
		return nil
	})
	return pages, nil
}

// pageCount is the number of class pages covering [va, va+length).
func pageCount(va VA, length uint64, class PageClass) int {
	ps := class.Size()
	return int((uint64(va)+length+ps-1)/ps - uint64(va)/ps)
}

// Pin pins every page of [va, va+len) in memory and appends the pages,
// in address order, to dst, returning the extended slice; a caller that
// pins often passes the same buffer back each time. Each page's pin
// count is incremented; pinned pages refuse to unmap. On an error dst
// comes back as passed. Pin is step 1 of memory registration.
func (as *AddressSpace) Pin(dst []Page, va VA, length uint64) ([]Page, error) {
	if length == 0 {
		return dst, nil
	}
	// Check the whole range before pinning any of it.
	class, err := as.walk(va, length, nil)
	if err != nil {
		return dst, err
	}
	pages := slices.Grow(dst, pageCount(va, length, class))
	_, err = as.walk(va, length, func(a VA, p *pte) error {
		p.pins++
		as.stats.Pins++
		pages = append(pages, Page{VA: a, PA: phys.Addr(uint64(p.frame) * machine.SmallPageSize), Class: class})
		return nil
	})
	if err != nil {
		return dst, err
	}
	return pages, nil
}

// Unpin decrements the pin count of every page of [va, va+len).
func (as *AddressSpace) Unpin(va VA, length uint64) error {
	if length == 0 {
		return nil
	}
	// Check the whole range before unpinning any of it.
	if _, err := as.walk(va, length, nil); err != nil {
		return err
	}
	_, err := as.walk(va, length, func(a VA, p *pte) error {
		if p.pins == 0 {
			return fmt.Errorf("%w: %#x", ErrNotPinned, uint64(a))
		}
		p.pins--
		as.stats.Unpins++
		return nil
	})
	return err
}

// Write copies p into the address space at va, through the page tables.
func (as *AddressSpace) Write(va VA, p []byte) error {
	for len(p) > 0 {
		pa, class, err := as.translateQuiet(va)
		if err != nil {
			return err
		}
		ps := class.Size()
		n := int(ps - uint64(va)%ps)
		if n > len(p) {
			n = len(p)
		}
		as.mem.WritePhys(pa, p[:n])
		va += VA(n)
		p = p[n:]
	}
	return nil
}

// WriteRamp writes the n bytes byte(c), byte(c+1), …, byte(c+n-1) at
// va, through the page tables like Write. Whole frames share the
// physical memory's read-only ramp frames.
func (as *AddressSpace) WriteRamp(va VA, c, n int) error {
	for n > 0 {
		pa, class, err := as.translateQuiet(va)
		if err != nil {
			return err
		}
		k := min(n, int(class.Size()-uint64(va)%class.Size()))
		as.mem.WriteRamp(pa, c, k)
		va += VA(k)
		c += k
		n -= k
	}
	return nil
}

// Read fills p from the address space starting at va.
func (as *AddressSpace) Read(va VA, p []byte) error {
	for len(p) > 0 {
		pa, class, err := as.translateQuiet(va)
		if err != nil {
			return err
		}
		ps := class.Size()
		n := int(ps - uint64(va)%ps)
		if n > len(p) {
			n = len(p)
		}
		as.mem.ReadPhys(pa, p[:n])
		va += VA(n)
		p = p[n:]
	}
	return nil
}

// Copy moves n bytes from src to dst within the address space, frame to
// frame through both page tables, with no intermediate buffer: the data
// movement of a CPU memcpy, whose price the caller charges. A whole
// source frame that shares a ramp frame is passed on by pointer, a
// never-written one arrives as zeros. Both ranges are checked before any
// byte moves; they must not overlap.
func (as *AddressSpace) Copy(dst, src VA, n int) error {
	return as.walk2(dst, src, n, func(dpa, spa phys.Addr, c int) {
		phys.Copy(as.mem, dpa, as.mem, spa, c)
	})
}

// ReduceF64 combines the n bytes of float64s at src into those at dst in
// place, dst = dst op src elementwise, frame to frame through both page
// tables (phys.Memory.ReduceF64): the data movement of a CPU reduction
// loop, whose price the caller charges. A never-written source frame
// reads as zeros. Both addresses and n must be multiples of 8, and the
// ranges are checked as for Copy before any value changes.
func (as *AddressSpace) ReduceF64(dst, src VA, n int, op phys.ReduceOp) error {
	if dst%8 != 0 || src%8 != 0 || n%8 != 0 {
		return fmt.Errorf("vm: float64 reduce of %d bytes at %#x from %#x needs 8-byte alignment", n, uint64(dst), uint64(src))
	}
	return as.walk2(dst, src, n, func(dpa, spa phys.Addr, c int) {
		as.mem.ReduceF64(dpa, spa, c, op)
	})
}

// walk2 calls fn, in address order, for each stretch of the ranges
// [dst, dst+n) and [src, src+n) that lies within one page of each, with
// the stretch's physical address in both. Both ranges are checked before
// fn first runs: a negative n, an unmapped byte (ErrUnmapped) or
// overlapping ranges (ErrOverlap) fail with no call.
func (as *AddressSpace) walk2(dst, src VA, n int, fn func(dpa, spa phys.Addr, c int)) error {
	if n < 0 {
		return fmt.Errorf("vm: negative length %d", n)
	}
	if err := as.CheckMapped(src, n); err != nil {
		return err
	}
	if err := as.CheckMapped(dst, n); err != nil {
		return err
	}
	if src < dst+VA(n) && dst < src+VA(n) {
		return fmt.Errorf("%w: [%#x,+%d) and [%#x,+%d)", ErrOverlap, uint64(src), n, uint64(dst), n)
	}
	for n > 0 {
		// Both ranges are mapped: checked above.
		spa, sclass, _ := as.translateQuiet(src)
		dpa, dclass, _ := as.translateQuiet(dst)
		c := min(n, int(sclass.Size()-uint64(src)%sclass.Size()), int(dclass.Size()-uint64(dst)%dclass.Size()))
		fn(dpa, spa, c)
		src += VA(c)
		dst += VA(c)
		n -= c
	}
	return nil
}

// CheckMapped reports ErrUnmapped, naming the first such address, if any
// byte of [va, va+n) has no mapping. Unlike Pages and Pin it accepts a
// range that spans page classes.
func (as *AddressSpace) CheckMapped(va VA, n int) error {
	for a, end := uint64(va), uint64(va)+uint64(max(n, 0)); a < end; {
		i := as.find(VA(a))
		if i < 0 {
			return fmt.Errorf("%w: %#x", ErrUnmapped, a)
		}
		a = uint64(as.regions[i].start) + as.regions[i].size
	}
	return nil
}

// translateQuiet is Translate without the statistics bump, for bulk IO.
func (as *AddressSpace) translateQuiet(va VA) (phys.Addr, PageClass, error) {
	p, class, err := as.lookup(va)
	if err != nil {
		return 0, Small, fmt.Errorf("%w: %#x", err, uint64(va))
	}
	off := uint64(va) % class.Size()
	return phys.Addr(uint64(p.frame)*machine.SmallPageSize + off), class, nil
}

// Stats returns a snapshot of the counters.
func (as *AddressSpace) Stats() Stats {
	return as.stats
}

// Regions returns the current mappings sorted by start address (a
// diagnostic view, used by tests).
func (as *AddressSpace) Regions() []struct {
	Start VA
	Size  uint64
	Class PageClass
} {
	out := make([]struct {
		Start VA
		Size  uint64
		Class PageClass
	}, len(as.regions))
	for i, r := range as.regions {
		out[i] = struct {
			Start VA
			Size  uint64
			Class PageClass
		}{r.start, r.size, r.class}
	}
	return out
}

// IsHugeVA reports whether va lies in the hugepage window. The OpenIB
// driver model uses this to decide which translations to push (the
// unpatched driver "pretends 4 KB pages" regardless).
func IsHugeVA(va VA) bool { return va >= hugeBase && va < hugeLimit }
