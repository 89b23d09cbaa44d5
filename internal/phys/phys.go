// Package phys models physical memory as seen by the registration path:
// a pool of 4 KiB frames plus a hugetlbfs-style pool of 2 MiB hugepages
// that must be set aside at boot.
//
// Two properties matter for the paper and are modelled here:
//
//  1. Small-page allocations fragment. After any realistic allocation
//     history, consecutive virtual pages map to scattered physical frames,
//     so a buffer of N small pages needs N distinct address translations.
//  2. Hugepages are physically contiguous by construction, so one 2 MiB
//     buffer needs one translation, and the hardware prefetcher can stream
//     across the whole extent.
//
// The pool also implements the reservation the paper's library keeps for
// fork/Copy-on-Write ("it must leave a reserve of hugepages that are needed
// when forking processes").
package phys

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Frame is a physical frame number (4 KiB units). The physical byte
// address of a frame f is f * machine.SmallPageSize.
type Frame uint64

// Addr is a physical byte address.
type Addr uint64

// Errors returned by the allocator.
var (
	ErrOutOfMemory    = errors.New("phys: out of physical memory")
	ErrOutOfHugepages = errors.New("phys: hugepage pool exhausted")
	ErrReserveHeld    = errors.New("phys: request would dip into the CoW reserve")
	ErrDoubleFree     = errors.New("phys: double free")
	ErrBadReserve     = errors.New("phys: reserve exceeds hugepage pool")
)

// Memory is the physical memory of one node. It takes no lock: the
// simulated processes sharing it are tasks of one internal/sched
// scheduler, which runs exactly one of them at a time.
type Memory struct {
	totalFrames int64
	// next is the bump pointer for never-used frames.
	next Frame
	// free holds recycled small frames in LIFO order. LIFO is deliberate:
	// it maximises temporal locality like a real page allocator's per-CPU
	// lists, and it also guarantees that a warmed-up system hands out
	// physically *discontiguous* frame sequences, which is the property
	// the registration path cares about.
	free []Frame
	// run is the warm-up Scramble leaves on a fresh pool, kept as
	// arithmetic instead of a list. It sits at the bottom of the free
	// stack: AllocFrame pops free first, then the run, then the bump
	// pointer, and FreeFrame pushes onto free, on top of the run.
	run scrambledRun

	// hugeFree holds the indices of free hugepages in the boot-time pool.
	// Hugepage i covers frames [hugeBase + i*512, hugeBase + (i+1)*512).
	hugeBase  Frame
	hugeTotal int
	hugeFree  []int
	hugeBusy  []bool
	// hugeReserved is the number of pool pages held back for fork/CoW;
	// AllocHuge refuses to hand them out. Reservations compose: every
	// Reserve call adds to the total (and validates it against the pool)
	// so several components sharing one Memory each keep their own hold.
	hugeReserved int

	// inj, when set, injects hugepage-pool faults (spurious allocation
	// failures, mid-run pool shrinks). Nil = no faults.
	inj *faults.Injector

	stats Stats

	// cur, when set, stamps hugepage-pool incidents (injected failures,
	// shrinks, exhaustion) as instant trace markers. Nil = no tracing.
	cur *trace.Cursor

	data dataStore
}

// Stats reports allocator activity.
type Stats struct {
	SmallAllocated int64 // gauge: currently allocated small frames
	SmallPeak      int64
	HugeAllocated  int // gauge: currently allocated hugepages
	HugePeak       int
	HugeFailures   int64 // AllocHuge calls refused
	HugeInjected   int64 // refusals that were injected faults
	HugeRemoved    int64 // free pages removed by fault injection (cap + shrink)
}

// NewMemory builds the physical memory of one machine: the hugepage pool
// is carved from the top of memory, everything below is the small-frame
// zone.
func NewMemory(m *machine.Machine) *Memory {
	totalFrames := m.Mem.TotalBytes / machine.SmallPageSize
	hugeFrames := int64(m.Mem.HugePool) * machine.SmallPerHuge
	if hugeFrames >= totalFrames {
		panic(fmt.Sprintf("phys: hugepage pool (%d pages) exceeds memory", m.Mem.HugePool))
	}
	mem := &Memory{
		totalFrames: totalFrames,
		hugeBase:    Frame(totalFrames - hugeFrames),
		hugeTotal:   m.Mem.HugePool,
		hugeFree:    make([]int, m.Mem.HugePool),
		hugeBusy:    make([]bool, m.Mem.HugePool),
	}
	// Pages pop from the end, so the pool hands out page 0 first.
	for i := range mem.hugeFree {
		mem.hugeFree[i] = m.Mem.HugePool - 1 - i
	}
	return mem
}

// AllocFrame hands out one small frame.
func (m *Memory) AllocFrame() (Frame, error) {
	var f Frame
	switch {
	case len(m.free) > 0:
		f = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	case m.run.left > 0:
		m.run.left--
		f = m.run.at(m.run.left)
	case m.next < m.hugeBase:
		f = m.next
		m.next++
	default:
		return 0, ErrOutOfMemory
	}
	m.stats.SmallAllocated++
	if m.stats.SmallAllocated > m.stats.SmallPeak {
		m.stats.SmallPeak = m.stats.SmallAllocated
	}
	return f, nil
}

// FreeFrame returns one small frame to the pool.
func (m *Memory) FreeFrame(f Frame) error {
	if f >= m.hugeBase {
		return fmt.Errorf("phys: frame %d belongs to the hugepage zone", f)
	}
	m.free = append(m.free, f)
	m.stats.SmallAllocated--
	if m.stats.SmallAllocated < 0 {
		return ErrDoubleFree
	}
	return nil
}

// SetFaults attaches a fault injector. An injector with a pool cap
// immediately trims the free list to the cap, modeling a host whose
// hugetlbfs pool is smaller than the machine description promises.
func (m *Memory) SetFaults(inj *faults.Injector) {
	m.inj = inj
	if cap := inj.HugePoolCap(); cap > 0 && len(m.hugeFree) > cap {
		m.removeFree(len(m.hugeFree) - cap)
	}
}

// SetTrace attaches a trace cursor; hugepage-pool incidents stamp at its
// current position (the owning rank moves the cursor at its entry points,
// the same way the address space is traced).
func (m *Memory) SetTrace(cur *trace.Cursor) {
	m.cur = cur
}

// removeFree permanently drops up to n free hugepages from the
// pool (the pages that would have been handed out last, keeping the
// imminent allocation order stable). Slicing them off the bottom of the
// stack shrinks its capacity by as many pages as leave the pool, so
// FreeHuge's append never outgrows the array NewMemory sized.
func (m *Memory) removeFree(n int) {
	if n > len(m.hugeFree) {
		n = len(m.hugeFree)
	}
	m.hugeFree = m.hugeFree[n:]
	m.stats.HugeRemoved += int64(n)
}

// AllocHuge hands out one hugepage and returns its first frame. The
// returned extent of machine.SmallPerHuge frames is physically contiguous.
// It fails with ErrReserveHeld if only reserved pages remain.
func (m *Memory) AllocHuge() (Frame, error) {
	if fail, shrink := m.inj.HugeAllocFault(); fail || shrink > 0 {
		if shrink > 0 {
			m.removeFree(shrink)
			if m.cur.Enabled() {
				m.cur.Event(trace.LPhys, "hugepool.shrink",
					trace.I64("pages", int64(shrink)), trace.I64("free", int64(len(m.hugeFree))))
			}
		}
		if fail {
			m.stats.HugeFailures++
			m.stats.HugeInjected++
			if m.cur.Enabled() {
				m.cur.Event(trace.LPhys, "hugepool.fail", trace.I64("injected", 1))
			}
			return 0, fmt.Errorf("injected fault: %w", ErrOutOfHugepages)
		}
	}
	if len(m.hugeFree) == 0 {
		m.stats.HugeFailures++
		if m.cur.Enabled() {
			m.cur.Event(trace.LPhys, "hugepool.empty")
		}
		return 0, ErrOutOfHugepages
	}
	if len(m.hugeFree) <= m.hugeReserved {
		m.stats.HugeFailures++
		if m.cur.Enabled() {
			m.cur.Event(trace.LPhys, "hugepool.reserve.held",
				trace.I64("free", int64(len(m.hugeFree))), trace.I64("reserved", int64(m.hugeReserved)))
		}
		return 0, ErrReserveHeld
	}
	idx := m.hugeFree[len(m.hugeFree)-1]
	m.hugeFree = m.hugeFree[:len(m.hugeFree)-1]
	m.hugeBusy[idx] = true
	m.stats.HugeAllocated++
	if m.stats.HugeAllocated > m.stats.HugePeak {
		m.stats.HugePeak = m.stats.HugeAllocated
	}
	return m.hugeBase + Frame(idx)*machine.SmallPerHuge, nil
}

// FreeHuge returns a hugepage (identified by its first frame) to the pool.
func (m *Memory) FreeHuge(f Frame) error {
	if f < m.hugeBase || (f-m.hugeBase)%machine.SmallPerHuge != 0 {
		return fmt.Errorf("phys: frame %d is not a hugepage base", f)
	}
	idx := int((f - m.hugeBase) / machine.SmallPerHuge)
	if !m.hugeBusy[idx] {
		return ErrDoubleFree
	}
	m.hugeBusy[idx] = false
	m.hugeFree = append(m.hugeFree, idx)
	m.stats.HugeAllocated--
	return nil
}

// AllocHugeCoW hands out one hugepage for a copy-on-write break. Unlike
// AllocHuge it may dig into the reserve — satisfying fork/CoW demand is
// exactly what the reserve is held back for. It is also exempt from
// injected spurious failures for the same reason (though a fault-shrunk
// pool can still genuinely run dry underneath it).
func (m *Memory) AllocHugeCoW() (Frame, error) {
	if len(m.hugeFree) == 0 {
		m.stats.HugeFailures++
		return 0, ErrOutOfHugepages
	}
	idx := m.hugeFree[len(m.hugeFree)-1]
	m.hugeFree = m.hugeFree[:len(m.hugeFree)-1]
	m.hugeBusy[idx] = true
	m.stats.HugeAllocated++
	if m.stats.HugeAllocated > m.stats.HugePeak {
		m.stats.HugePeak = m.stats.HugeAllocated
	}
	return m.hugeBase + Frame(idx)*machine.SmallPerHuge, nil
}

// Reserve sets aside n additional hugepages that AllocHuge may not hand
// out; this is the fork/CoW reserve of the paper's mapping layer.
// Reservations compose — each caller's hold adds to the total, so
// several hugepage libraries sharing one Memory don't silently clobber
// each other (the old semantics: last caller wins). The combined
// reserve is validated against the boot-time pool size; a request that
// would push it past the pool fails with ErrBadReserve and leaves the
// reserve unchanged. Undo a hold with Unreserve.
func (m *Memory) Reserve(n int) error {
	if n < 0 {
		return fmt.Errorf("%w: negative reserve %d", ErrBadReserve, n)
	}
	if m.hugeReserved+n > m.hugeTotal {
		return fmt.Errorf("%w: %d already held + %d requested > pool of %d",
			ErrBadReserve, m.hugeReserved, n, m.hugeTotal)
	}
	m.hugeReserved += n
	return nil
}

// Unreserve releases n pages of a hold taken with Reserve.
func (m *Memory) Unreserve(n int) error {
	if n < 0 {
		return fmt.Errorf("%w: negative unreserve %d", ErrBadReserve, n)
	}
	if n > m.hugeReserved {
		return fmt.Errorf("%w: releasing %d but only %d held", ErrBadReserve, n, m.hugeReserved)
	}
	m.hugeReserved -= n
	return nil
}

// Reserved reports the combined fork/CoW hold.
func (m *Memory) Reserved() int {
	return m.hugeReserved
}

// HugeAvailable reports how many hugepages AllocHuge could currently
// satisfy (free minus reserve).
func (m *Memory) HugeAvailable() int {
	n := len(m.hugeFree) - m.hugeReserved
	if n < 0 {
		n = 0
	}
	return n
}

// HugeTotal reports the boot-time pool size.
func (m *Memory) HugeTotal() int { return m.hugeTotal }

// Stats returns a snapshot of allocator statistics.
func (m *Memory) Stats() Stats {
	return m.stats
}

// Scramble warms up the small-frame pool so that subsequent allocations
// are physically discontiguous, as on a long-running host. It takes the
// next n frames AllocFrame would hand out (fewer if the small-frame zone
// runs out) and pushes them back onto the LIFO free list, the
// even-indexed ones first and the odd-indexed ones on top. Allocation
// then pops the odd-indexed frames last-taken first, then the
// even-indexed ones the same way. On a fresh pool the frames taken are
// 0..n-1, so allocations come out n-1, n-3, …, 1, n-2, n-4, …, 0: two
// frames apart, which is what leaves a multi-page small buffer
// physically discontiguous. The result, next and Stats included, is
// that of n AllocFrame calls followed by the matching FreeFrame calls.
//
// When the free stack is empty the frames taken are a block of
// never-used ones, and the warm-up is recorded as a scrambledRun in O(1)
// space; otherwise the stack is built in one pass.
func (m *Memory) Scramble(n int) {
	if n <= 0 {
		return
	}
	if len(m.free) == 0 && m.run.left == 0 {
		taken := int(min(Frame(n), m.hugeBase-m.next))
		m.run = scrambledRun{base: m.next, count: taken, left: taken}
		m.next += Frame(taken)
		m.stats.SmallPeak = max(m.stats.SmallPeak, m.stats.SmallAllocated+int64(taken))
		return
	}
	m.spillRun()
	// The frames AllocFrame would hand out: the top of the free list
	// first, then never-used frames from the bump pointer.
	popped := min(n, len(m.free))
	fresh := int(min(Frame(n-popped), m.hugeBase-m.next))
	taken := popped + fresh
	keep := len(m.free) - popped
	nth := func(i int) Frame {
		if i < popped {
			return m.free[len(m.free)-1-i]
		}
		return m.next + Frame(i-popped)
	}
	free := make([]Frame, keep, keep+taken)
	copy(free, m.free[:keep])
	for i := 0; i < taken; i += 2 {
		free = append(free, nth(i))
	}
	for i := 1; i < taken; i += 2 {
		free = append(free, nth(i))
	}
	m.free = free
	m.next += Frame(fresh)
	m.stats.SmallPeak = max(m.stats.SmallPeak, m.stats.SmallAllocated+int64(taken))
}

// scrambledRun is the free stack Scramble leaves over count never-used
// frames starting at base: from the bottom, base, base+2, base+4, …,
// then base+1, base+3, …. The left positions at the bottom are still
// free; AllocFrame pops position left-1.
type scrambledRun struct {
	base        Frame
	count, left int
}

// at returns the frame at position k from the bottom of the run.
func (r scrambledRun) at(k int) Frame {
	evens := (r.count + 1) / 2
	if k < evens {
		return r.base + Frame(2*k)
	}
	return r.base + Frame(2*(k-evens)+1)
}

// spillRun writes what is left of the scrambled run into the free
// list, below the frames freed on top of it, so the list alone holds the
// whole free stack.
func (m *Memory) spillRun() {
	if m.run.left == 0 {
		return
	}
	free := make([]Frame, m.run.left, m.run.left+len(m.free))
	for k := range free {
		free[k] = m.run.at(k)
	}
	m.free = append(free, m.free...)
	m.run = scrambledRun{}
}
