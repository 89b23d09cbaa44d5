// Package alloc implements the allocation-side of the paper: the
// transparent hugepage library of Section 3 (hugealloc), the libc-style
// general-purpose allocator it delegates small requests to (libcalloc),
// and models of the two competing libraries discussed in Section 2 —
// libhugetlbfs (morecore: the libc algorithm drawing its arena from
// hugepages) and libhugepagealloc (pagesep: every buffer in its own
// hugepage).
//
// Every allocator charges virtual time for the algorithmic work it
// actually performs (freelist nodes visited, splits, coalesces, syscalls),
// so the §2 claim "we measured allocation benefits of up to 10 times with
// our library (e.g. for Abinit)" is reproduced from mechanism, not
// hard-coded.
package alloc

import (
	"errors"

	"repro/internal/simtime"
	"repro/internal/vm"
)

// Allocator is the malloc/free surface every model implements.
type Allocator interface {
	// Alloc returns the virtual address of a new block of at least size
	// bytes.
	Alloc(size uint64) (vm.VA, error)
	// Free releases a block previously returned by Alloc.
	Free(va vm.VA) error
	// UsableSize reports the block size reserved for va (0 if unknown).
	UsableSize(va vm.VA) uint64
	// Stats returns cumulative counters including the virtual time the
	// allocator itself consumed.
	Stats() Stats
}

// Stats counts allocator work.
type Stats struct {
	Allocs, Frees   int64
	Ticks           simtime.Ticks // CPU time spent inside the allocator
	NodesVisited    int64
	Splits          int64
	Coalesces       int64
	Syscalls        int64 // sbrk/mmap/hugetlbfs calls
	HugeBytes       int64 // gauge: bytes currently placed in hugepages
	SmallBytes      int64 // gauge: bytes currently placed in small pages
	LiveBytes       int64 // gauge: bytes currently live
	PeakLive        int64
	FallbackToSmall int64 // hugepage requests served from small pages
	FallbackBytes   int64 // cumulative bytes those fallbacks handed out
}

// Cost constants (ticks). In-band boundary tags live next to user data,
// so walking the freelist touches a cold cache line per node; the paper's
// metadata cache keeps all nodes hot ("ensuring good locality when
// traversing the freelist").
const (
	costNodeColdVisit  = 4 // boundary-tag header touch
	costNodeCacheVisit = 1 // metadata-cache node touch
	costHeaderUpdate   = 12
	costSplit          = 25
	costCoalesce       = 35
	costBinIndex       = 3 // size-class bookkeeping
)

// Errors.
var (
	ErrNotAllocated = errors.New("alloc: address was not allocated")
	ErrBadSize      = errors.New("alloc: bad size")
)

func alignUp(n, to uint64) uint64 { return (n + to - 1) / to * to }
