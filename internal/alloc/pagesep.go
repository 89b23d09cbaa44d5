package alloc

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// PageSep models libhugepagealloc (Section 2): "not thread safe and does
// not assure locality between allocated buffers since every buffer is
// mapped into a separate hugepage". Every allocation maps its own
// hugepage(s); every free unmaps them. Consequences the benchmarks
// expose: a syscall per allocation, gross hugepage-pool waste for
// mid-sized buffers, zero spatial locality between buffers, and hugepage
// TLB pressure proportional to the number of live buffers.
//
// The real library's thread-unsafety cannot be reproduced as actual data
// races in a correctness-first simulator; we keep an internal lock and
// expose the hazard through ThreadSafe() == false, which the benchmark
// harness reports alongside the numbers.
type PageSep struct {
	as           *vm.AddressSpace
	syscallTicks simtime.Ticks

	mu    sync.Mutex //reprolint:ignore schedonly: paper §3 thread-safety claim, checked by TestHugeThreadSafety
	used  map[vm.VA]uint64
	stats Stats
}

// NewPageSep builds the model.
func NewPageSep(as *vm.AddressSpace, syscallTicks simtime.Ticks) *PageSep {
	return &PageSep{as: as, syscallTicks: syscallTicks, used: make(map[vm.VA]uint64)}
}

// ThreadSafe reports the modelled library's concurrency guarantee.
func (p *PageSep) ThreadSafe() bool { return false }

// Alloc implements Allocator: one fresh hugepage mapping per buffer.
// When the pool cannot supply the pages the mapping falls back to base
// pages (the real library's GHR_FALLBACK behaviour) and the degradation
// is counted.
func (p *PageSep) Alloc(size uint64) (vm.VA, error) {
	if size == 0 {
		return 0, ErrBadSize
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Allocs++
	mapped := alignUp(size, machine.HugePageSize)
	va, huge, err := p.as.MapHugeOrSmall(mapped)
	if err != nil {
		return 0, err
	}
	p.stats.Syscalls++
	p.stats.Ticks += p.syscallTicks
	p.used[va] = mapped
	if huge {
		p.stats.HugeBytes += int64(mapped)
	} else {
		p.stats.SmallBytes += int64(mapped)
		p.stats.FallbackToSmall++
		p.stats.FallbackBytes += int64(mapped)
	}
	p.stats.LiveBytes += int64(mapped)
	if p.stats.LiveBytes > p.stats.PeakLive {
		p.stats.PeakLive = p.stats.LiveBytes
	}
	return va, nil
}

// Free implements Allocator.
func (p *PageSep) Free(va vm.VA) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Frees++
	n, ok := p.used[va]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	delete(p.used, va)
	p.stats.Syscalls++
	p.stats.Ticks += p.syscallTicks
	if vm.IsHugeVA(va) {
		p.stats.HugeBytes -= int64(n)
	} else {
		p.stats.SmallBytes -= int64(n)
	}
	p.stats.LiveBytes -= int64(n)
	return p.as.Unmap(va, n)
}

// UsableSize implements Allocator.
func (p *PageSep) UsableSize(va vm.VA) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used[va]
}

// Stats implements Allocator.
func (p *PageSep) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
