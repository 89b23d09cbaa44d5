package alloc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// Libc models a glibc-style general-purpose allocator: boundary-tag
// blocks, an address-ordered first-fit free list with immediate
// coalescing on free, splitting on allocation, a brk-grown main arena and
// an mmap path for very large requests. This is the baseline the paper's
// library is compared against, and also the engine reused by the
// libhugetlbfs model (see NewMorecore), which only swaps the arena source.
type Libc struct {
	name string
	as   *vm.AddressSpace

	// mu is the allocator's own lock, or the lock of the Huge library
	// delegating to it.
	mu   *sync.Mutex //reprolint:ignore schedonly: paper §3 thread-safety claim, checked by TestHugeThreadSafety
	free []span      // address-ordered free spans
	used map[vm.VA]uint64
	mmap map[vm.VA]uint64 // direct mappings (va -> mapped length)

	// grow extends the main arena by at least n bytes and returns the new
	// region (the sbrk path, or hugepage morecore for libhugetlbfs).
	grow func(n uint64) (vm.VA, uint64, error)
	// bigMap serves requests above MmapThreshold directly (mmap path).
	bigMap   func(n uint64) (vm.VA, uint64, error)
	bigUnmap func(va vm.VA, n uint64) error

	// MmapThreshold is glibc's M_MMAP_THRESHOLD (default 128 KiB).
	MmapThreshold uint64
	syscallTicks  simtime.Ticks

	stats Stats
}

type span struct {
	va   vm.VA
	size uint64
}

const (
	minBlock   = 32
	allocAlign = 16
	arenaChunk = 1 << 20 // grow the arena 1 MiB at a time
	// mmapThresholdMax caps the dynamic mmap threshold, as
	// DEFAULT_MMAP_THRESHOLD_MAX does in glibc.
	mmapThresholdMax = 32 << 20
)

// NewLibc builds the baseline allocator on small pages.
func NewLibc(as *vm.AddressSpace, syscallTicks simtime.Ticks) *Libc {
	l := &Libc{
		name:          "libc",
		as:            as,
		mu:            new(sync.Mutex), //reprolint:ignore schedonly: the lock of the field above
		used:          make(map[vm.VA]uint64),
		mmap:          make(map[vm.VA]uint64),
		MmapThreshold: 128 << 10,
		syscallTicks:  syscallTicks,
	}
	l.grow = func(n uint64) (vm.VA, uint64, error) {
		sz := alignUp(n, machine.SmallPageSize)
		if sz < arenaChunk {
			sz = arenaChunk
		}
		va, err := as.Sbrk(sz)
		return va, sz, err
	}
	l.bigMap = func(n uint64) (vm.VA, uint64, error) {
		sz := alignUp(n, machine.SmallPageSize)
		va, err := as.MapSmall(sz)
		return va, sz, err
	}
	l.bigUnmap = func(va vm.VA, n uint64) error { return as.Unmap(va, n) }
	return l
}

// NewMorecore builds the libhugetlbfs model: the identical libc algorithm
// whose arena morecore() and mmap path draw from hugetlbfs, so *every*
// libc-allocated buffer resides in hugepages (the behaviour Section 2
// warns about: small allocations burn scarce hugepage TLB entries too).
// Like the real library, an arena extension that cannot get hugepages
// falls back to base pages rather than failing malloc; the fallback is
// counted, and account() attributes the bytes to the small side.
func NewMorecore(as *vm.AddressSpace, syscallTicks simtime.Ticks) *Libc {
	l := NewLibc(as, syscallTicks)
	l.name = "libhugetlbfs-morecore"
	l.grow = func(n uint64) (vm.VA, uint64, error) {
		sz := alignUp(n, machine.HugePageSize)
		va, huge, err := as.MapHugeOrSmall(sz)
		if err != nil {
			return 0, 0, err
		}
		if !huge { // callers hold l.mu
			l.stats.FallbackToSmall++
			l.stats.FallbackBytes += int64(sz)
		}
		return va, sz, nil
	}
	l.bigMap = l.grow
	l.bigUnmap = func(va vm.VA, n uint64) error {
		return as.Unmap(va, alignUp(n, machine.HugePageSize))
	}
	return l
}

// Name implements Allocator.
func (l *Libc) Name() string { return l.name }

// Alloc implements Allocator: mmap path above the threshold, otherwise
// address-ordered first fit with splitting.
func (l *Libc) Alloc(size uint64) (vm.VA, error) {
	if size == 0 {
		return 0, ErrBadSize
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	need := alignUp(size, allocAlign)
	l.stats.Allocs++

	if need >= l.MmapThreshold {
		va, got, err := l.bigMap(need)
		if err != nil {
			return 0, err
		}
		l.stats.Syscalls++
		l.stats.Ticks += l.syscallTicks
		l.mmap[va] = got
		l.account(va, got, +1)
		return va, nil
	}

	va, ok := l.takeFirstFit(need)
	if !ok {
		gva, got, err := l.grow(need)
		if err != nil {
			return 0, err
		}
		l.stats.Syscalls++
		l.stats.Ticks += l.syscallTicks
		l.insertFree(span{gva, got})
		va, ok = l.takeFirstFit(need)
		if !ok {
			return 0, fmt.Errorf("alloc: arena growth of %d bytes did not satisfy %d", got, need)
		}
	}
	l.used[va] = need
	l.account(va, need, +1)
	return va, nil
}

// takeFirstFit scans the address-ordered list, splitting the first span
// that fits. Callers hold the lock.
func (l *Libc) takeFirstFit(need uint64) (vm.VA, bool) {
	for i := range l.free {
		l.stats.NodesVisited++
		l.stats.Ticks += costNodeColdVisit
		s := l.free[i]
		if s.size < need {
			continue
		}
		if s.size-need >= minBlock {
			l.free[i] = span{s.va + vm.VA(need), s.size - need}
			l.stats.Splits++
			l.stats.Ticks += costSplit
		} else {
			l.free = append(l.free[:i], l.free[i+1:]...)
		}
		l.stats.Ticks += costHeaderUpdate
		return s.va, true
	}
	return 0, false
}

// insertFree inserts a span keeping address order and coalescing with
// both neighbours — glibc's immediate-coalescing behaviour that the
// paper's library deliberately avoids.
func (l *Libc) insertFree(s span) {
	i := sort.Search(len(l.free), func(i int) bool { return l.free[i].va >= s.va })
	// Coalesce with predecessor.
	if i > 0 && l.free[i-1].va+vm.VA(l.free[i-1].size) == s.va {
		l.free[i-1].size += s.size
		s = l.free[i-1]
		i--
		l.free = append(l.free[:i], l.free[i+1:]...)
		l.stats.Coalesces++
		l.stats.Ticks += costCoalesce
	}
	// Coalesce with successor.
	if i < len(l.free) && s.va+vm.VA(s.size) == l.free[i].va {
		s.size += l.free[i].size
		l.free = append(l.free[:i], l.free[i+1:]...)
		l.stats.Coalesces++
		l.stats.Ticks += costCoalesce
	}
	l.free = append(l.free, span{})
	copy(l.free[i+1:], l.free[i:])
	l.free[i] = s
	l.stats.Ticks += costHeaderUpdate
}

// Free implements Allocator.
func (l *Libc) Free(va vm.VA) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Frees++
	if n, ok := l.mmap[va]; ok {
		delete(l.mmap, va)
		l.stats.Syscalls++
		l.stats.Ticks += l.syscallTicks
		l.account(va, n, -1)
		// glibc's dynamic mmap threshold: freeing an mmap'd block raises
		// the threshold to its size (capped), so the next allocation of
		// that size is served from the heap instead of a fresh mmap.
		if n > l.MmapThreshold && n <= mmapThresholdMax {
			l.MmapThreshold = n + 1
		}
		return l.bigUnmap(va, n)
	}
	n, ok := l.used[va]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	delete(l.used, va)
	l.insertFree(span{va, n})
	l.account(va, n, -1)
	return nil
}

// account tracks live bytes by placement.
func (l *Libc) account(va vm.VA, n uint64, sign int64) {
	d := int64(n) * sign
	if vm.IsHugeVA(va) {
		l.stats.HugeBytes += d
	} else {
		l.stats.SmallBytes += d
	}
	l.stats.LiveBytes += d
	if l.stats.LiveBytes > l.stats.PeakLive {
		l.stats.PeakLive = l.stats.LiveBytes
	}
}

// UsableSize implements Allocator.
func (l *Libc) UsableSize(va vm.VA) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, ok := l.used[va]; ok {
		return n
	}
	return l.mmap[va]
}

// Stats implements Allocator.
func (l *Libc) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// FreeListLen reports the current freelist length (fragmentation probe
// used by tests and the ablation bench).
func (l *Libc) FreeListLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
