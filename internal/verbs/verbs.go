// Package verbs is the user-level verbs layer of the simulated stack: it
// owns memory registration and exposes the work-request primitives the
// communication library builds on.
//
// Registration follows the paper's three steps exactly (Section 3):
//
//  1. all pages of the communication buffer are pinned,
//  2. each page's virtual start address is translated to a physical one,
//  3. the translations are pushed to the NIC (MTT update commands).
//
// Every step is charged per page, so a 2 MiB buffer costs 512 pin +
// translate + push units in small pages but just 1 in hugepages — this is
// why "the effect of hugepage utilization is enormous, as memory
// registration time decreased extremely (down to 1 % of the time as with
// small pages)".
//
// HugeATT models the paper's OpenIB driver patch ("we modified it in a way
// to send hugepages to the adapter when those are used"): when false, the
// driver pretends 4 KiB pages and expands each hugepage into 512 MTT
// entries; when true it installs one 2 MiB entry per hugepage.
package verbs

import (
	"errors"
	"fmt"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/vm"
)

// ErrMemlockExceeded reports a registration refused because it would
// push the process's pinned bytes past the RLIMIT_MEMLOCK ceiling.
// Callers with a cache of idle registrations (regcache) can recover by
// evicting and retrying.
var ErrMemlockExceeded = errors.New("verbs: RLIMIT_MEMLOCK exceeded")

// MR is a user-visible registered memory region.
type MR struct {
	VA     vm.VA
	Length uint64
	LKey   uint32
	RKey   uint32
	Huge   bool // backed by hugepages
	// Entries is the number of MTT entries the registration pushed.
	Entries int

	hw *hca.MR
	// pinnedBytes is the page-rounded footprint charged against the
	// memlock budget; DeregMR gives it back. pinnedPages is the page
	// count behind the PagesPinned gauge, remembered the same way.
	pinnedBytes int64
	pinnedPages int64
}

// Stats counts registration activity and time, so benchmarks can separate
// registration overhead from transfer time (the two cases of Figure 5).
type Stats struct {
	Registrations   int64
	Deregistrations int64
	RegTicks        simtime.Ticks
	DeregTicks      simtime.Ticks
	PagesPinned     int64 // gauge: pages currently pinned
	// PinnedBytes is the current page-rounded registered footprint —
	// what RLIMIT_MEMLOCK meters (gauge).
	PinnedBytes int64
	// MemlockRejections counts registrations refused at the ceiling.
	MemlockRejections int64
}

// Context is one process's verbs context.
type Context struct {
	AS *vm.AddressSpace
	HW *hca.HCA
	// HugeATT enables the hugepage-translation driver patch.
	HugeATT bool
	// MemlockLimit caps the registered (pinned) footprint in bytes,
	// modeling RLIMIT_MEMLOCK; 0 = unlimited. Set before first use.
	MemlockLimit int64

	mach *machine.Machine

	stats Stats
}

// Open creates a verbs context for an address space on a machine's HCA.
func Open(m *machine.Machine, as *vm.AddressSpace) *Context {
	return &Context{
		AS:   as,
		HW:   hca.New(m, as.Mem()),
		mach: m,
	}
}

// RegMR registers [va, va+length) and returns the MR plus the time the
// registration took.
func (c *Context) RegMR(va vm.VA, length uint64) (*MR, simtime.Ticks, error) {
	return c.RegMRT(trace.Ctx{}, va, length)
}

// RegMRT is RegMR with tracing: a successful registration emits a
// verbs-layer RegMR span decomposed into the paper's three steps (pin,
// translate, MTT push) plus the syscall entry, starting at the trace
// position tc. A zero (disabled) Ctx records nothing and adds no
// allocations — this is the hot path guarded by the zero-alloc tests.
func (c *Context) RegMRT(tc trace.Ctx, va vm.VA, length uint64) (*MR, simtime.Ticks, error) {
	if length == 0 {
		return nil, 0, fmt.Errorf("verbs: zero-length registration at %#x", uint64(va))
	}
	cost := c.mach.Mem.SyscallTicks
	pages, err := c.AS.Pin(va, length)
	if err != nil {
		return nil, 0, fmt.Errorf("verbs: pin: %w", err)
	}
	// Steps 1+2: pin and translate, per actual page.
	cost += simtime.Ticks(len(pages)) * (c.mach.Mem.PinTicks + c.mach.Mem.TranslateTicks)

	// RLIMIT_MEMLOCK: the page-rounded footprint is what the kernel
	// charges.
	var pinned int64
	for _, p := range pages {
		pinned += int64(p.Class.Size())
	}
	if c.MemlockLimit > 0 && c.stats.PinnedBytes+pinned > c.MemlockLimit {
		held := c.stats.PinnedBytes
		c.stats.MemlockRejections++
		_ = c.AS.Unpin(va, length)
		if tc.Enabled() {
			tc.Event(trace.LVerbs, "memlock.reject",
				trace.I64("held_bytes", held), trace.I64("req_bytes", pinned))
		}
		return nil, 0, fmt.Errorf("verbs: %d pinned + %d requested > limit %d: %w",
			held, pinned, c.MemlockLimit, ErrMemlockExceeded)
	}
	c.stats.PinnedBytes += pinned

	hw, err := c.HW.InstallMR(va, length, pages, c.HugeATT)
	if err != nil {
		c.stats.PinnedBytes -= pinned
		_ = c.AS.Unpin(va, length)
		return nil, 0, fmt.Errorf("verbs: install: %w", err)
	}
	// Step 3: push translations to the NIC, batched.
	batches := (hw.NumEntries() + c.mach.HCA.MTTPushBatch - 1) / c.mach.HCA.MTTPushBatch
	cost += simtime.Ticks(batches) * c.mach.HCA.MTTPushTicks

	if tc.Enabled() {
		np := simtime.Ticks(len(pages))
		tc.SpanAt(trace.LVerbs, "RegMR", tc.Now(), cost,
			trace.I64("bytes", int64(length)),
			trace.I64("pages", int64(len(pages))),
			trace.I64("entries", int64(hw.NumEntries())),
			trace.I64("huge", b2i(pages[0].Class == vm.Huge)))
		child := tc.Span(trace.LVerbs, "syscall", c.mach.Mem.SyscallTicks)
		child = child.Span(trace.LVerbs, "pin", np*c.mach.Mem.PinTicks)
		child = child.Span(trace.LVerbs, "translate", np*c.mach.Mem.TranslateTicks)
		child.Span(trace.LVerbs, "mtt.push", simtime.Ticks(batches)*c.mach.HCA.MTTPushTicks,
			trace.I64("batches", int64(batches)))
	}

	mr := &MR{
		VA:          va,
		Length:      length,
		LKey:        hw.LKey,
		RKey:        hw.RKey,
		Huge:        pages[0].Class == vm.Huge,
		Entries:     hw.NumEntries(),
		hw:          hw,
		pinnedBytes: pinned,
		pinnedPages: int64(len(pages)),
	}
	c.stats.Registrations++
	c.stats.RegTicks += cost
	c.stats.PagesPinned += int64(len(pages))
	return mr, cost, nil
}

// b2i renders a bool as a span argument value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// DeregMR releases a region: MTT teardown, unpin.
func (c *Context) DeregMR(mr *MR) (simtime.Ticks, error) {
	return c.DeregMRT(trace.Ctx{}, mr)
}

// DeregMRT is DeregMR with tracing; the span starts at tc's position.
func (c *Context) DeregMRT(tc trace.Ctx, mr *MR) (simtime.Ticks, error) {
	cost := c.mach.Mem.SyscallTicks
	if err := c.HW.RemoveMR(mr.LKey); err != nil {
		return 0, err
	}
	if err := c.AS.Unpin(mr.VA, mr.Length); err != nil {
		return 0, fmt.Errorf("verbs: unpin: %w", err)
	}
	// Unpinning is cheaper than pinning; charge half the pin rate.
	pages := int64(mr.Length+machine.SmallPageSize-1) / machine.SmallPageSize
	if mr.Huge {
		pages = int64(mr.Length+machine.HugePageSize-1) / machine.HugePageSize
	}
	cost += simtime.Ticks(pages) * c.mach.Mem.PinTicks / 2
	c.stats.Deregistrations++
	c.stats.DeregTicks += cost
	c.stats.PinnedBytes -= mr.pinnedBytes
	c.stats.PagesPinned -= mr.pinnedPages
	if tc.Enabled() {
		tc.SpanAt(trace.LVerbs, "DeregMR", tc.Now(), cost,
			trace.I64("bytes", int64(mr.Length)), trace.I64("pages", mr.pinnedPages))
	}
	return cost, nil
}

// PostSend charges for posting a send work request with the given gather
// list and returns the post cost. The actual data motion is performed by
// Execute* on the coordinating layer.
func (c *Context) PostSend(sges []hca.SGE) simtime.Ticks {
	return c.HW.PostCost(len(sges))
}

// PostSendT is PostSend with tracing: the post cost is emitted as an
// hca-layer span at tc. The disabled path must stay allocation-free
// (this is the per-message hot path), hence the Enabled guard around
// the argument construction.
func (c *Context) PostSendT(tc trace.Ctx, sges []hca.SGE) simtime.Ticks {
	cost := c.HW.PostCost(len(sges))
	if tc.Enabled() {
		tc.SpanAt(trace.LHCA, "post", tc.Now(), cost, trace.I64("sges", int64(len(sges))))
	}
	return cost
}

// PostRecv charges for posting a receive work request.
func (c *Context) PostRecv(sges []hca.SGE) simtime.Ticks {
	return c.HW.PostCost(len(sges))
}

// PostRecvT is PostRecv with tracing (see PostSendT).
func (c *Context) PostRecvT(tc trace.Ctx, sges []hca.SGE) simtime.Ticks {
	cost := c.HW.PostCost(len(sges))
	if tc.Enabled() {
		tc.SpanAt(trace.LHCA, "post", tc.Now(), cost, trace.I64("sges", int64(len(sges))))
	}
	return cost
}

// PollCQ charges for reaping one completion.
func (c *Context) PollCQ() simtime.Ticks { return c.HW.PollCost() }

// PollCQT is PollCQ with tracing.
func (c *Context) PollCQT(tc trace.Ctx) simtime.Ticks {
	cost := c.HW.PollCost()
	if tc.Enabled() {
		tc.SpanAt(trace.LHCA, "poll", tc.Now(), cost)
	}
	return cost
}

// Stats returns a snapshot.
func (c *Context) Stats() Stats {
	return c.stats
}

// ResetStats zeroes the registration counters (between benchmark
// phases). PinnedBytes and PagesPinned are live gauges backing the
// memlock budget, not phase counters — they survive the reset.
func (c *Context) ResetStats() {
	c.stats = Stats{
		PinnedBytes: c.stats.PinnedBytes,
		PagesPinned: c.stats.PagesPinned,
	}
}

// Machine exposes the context's machine description.
func (c *Context) Machine() *machine.Machine { return c.mach }
