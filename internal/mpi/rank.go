package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/alloc"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/memtier"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/regcache"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/verbs"
	"repro/internal/vm"
)

// Rank is one MPI process — a scheduler task inside World.Run. All
// methods must be called from the rank's own task (the body passed to
// World.Run); Sendrecv internally forks a send-half sub-task, which is
// the one sanctioned exception and runs under the same scheduler's
// mutual exclusion.
type Rank struct {
	id    int
	world *World
	clock simtime.Clock

	// task is the rank's scheduler task while World.Run executes the
	// body, nil outside it. Blocking primitives park it; Compute yields
	// it so long compute phases become scheduled events.
	task *sched.Task
	// half is the send half of the rank's forked Sendrecv, allocated on
	// the first fork and reused by every later one.
	half *sendHalf

	// node owns the rank's host; the fields below are aliases into it,
	// kept so the hot paths skip a pointer hop.
	node *node.Node

	as    *vm.AddressSpace
	ctx   *verbs.Context
	cache *regcache.Cache
	alloc alloc.Allocator
	dtlb  *tlb.DTLB
	inj   *faults.Injector // nil when faults are disabled (nil-safe)
	tr    *trace.Tracer    // nil when tracing is disabled (nil-safe)
	cur   *trace.Cursor    // stamps the clockless layers' instant events

	// Per-peer message plumbing, created lazily on first use: a rank
	// only pays for the peers it actually talks to, which is what makes
	// 1024-rank worlds affordable (the old design allocated a dense
	// ranks² channel matrix, with every credit pool prefilled, before
	// the first message moved).
	inbox   map[int]*sched.Queue[*message] // keyed by source rank
	pending map[int][]*message             // unexpected-message queues, per source
	// credits[d] holds eager-buffer tokens for sending to rank d; each
	// token carries the virtual time at which the receiver freed it.
	credits map[int]*sched.Queue[simtime.Ticks]

	// Persistent collective scratch buffer (allocated via the rank's own
	// allocation library, so it follows the placement policy).
	scratchVA   vm.VA
	scratchSize uint64
	// pageBuf and refBuf are pageRefs' buffers, grown to the largest
	// range since and reused by every tier call.
	pageBuf []vm.Page
	refBuf  []memtier.PageRef

	// mpiDepth tracks nesting of profiled MPI entry points so that a
	// collective's internal point-to-point calls are not double-counted
	// (mpiP attributes time to the outermost call site). Plain int: the
	// scheduler runs at most one of the rank's tasks at a time.
	mpiDepth int

	// comm and compute split the rank's clock the way the paper's mpiP
	// profile does: comm is the time inside outermost MPI calls, compute
	// the application, allocator and policy time charged outside them.
	// Only the rank's main task touches them, so, like mpiDepth, they
	// need no lock.
	comm, compute simtime.Ticks

	// flowSeq[d] numbers the traced messages sent to rank d, so every
	// message arrow in the trace gets a globally unique id.
	flowSeq map[int]uint64
}

// inboxQ returns the rank's inbox for messages from src, creating it on
// first use.
func (r *Rank) inboxQ(src int) *sched.Queue[*message] {
	q := r.inbox[src]
	if q == nil {
		q = sched.NewQueue[*message](r.world.sched,
			fmt.Sprintf("inbox %d<-%d", r.id, src), channelDepth)
		r.inbox[src] = q
	}
	return q
}

// creditQ returns the eager-credit pool for sending to dst, created full
// on first use (a fresh peer has every bounce buffer free).
func (r *Rank) creditQ(dst int) *sched.Queue[simtime.Ticks] {
	q := r.credits[dst]
	if q == nil {
		q = sched.NewQueue[simtime.Ticks](r.world.sched,
			fmt.Sprintf("credits %d->%d", r.id, dst), eagerCredits)
		for k := 0; k < eagerCredits; k++ {
			q.Preload(0)
		}
		r.credits[dst] = q
	}
	return q
}

// tctx positions a trace context at clk's current instant: on the main
// track for the rank's own clock, on the send track for a Sendrecv's
// forked send half. Disabled tracing yields the inert zero Ctx.
func (r *Rank) tctx(clk *simtime.Clock) trace.Ctx {
	if r.tr == nil {
		return trace.Ctx{}
	}
	track := trace.TrackMain
	if clk != &r.clock {
		track = trace.TrackSend
	}
	return r.tr.At(track, clk.Now())
}

// nextFlow allocates a message-arrow id for a send to dst. Call only
// when tracing is enabled.
func (r *Rank) nextFlow(dst int) uint64 {
	r.flowSeq[dst]++
	return (uint64(r.id)*uint64(len(r.world.ranks))+uint64(dst))<<32 | r.flowSeq[dst]
}

// enterMPI marks entry into a profiled MPI call; it reports whether this
// is the outermost call (the one that should be recorded).
func (r *Rank) enterMPI() bool {
	r.mpiDepth++
	return r.mpiDepth == 1
}

// exitMPI leaves a profiled MPI call, adding its duration to the rank's
// comm time if this was the outermost frame.
func (r *Rank) exitMPI(name string, start simtime.Ticks, outer bool) {
	r.mpiDepth--
	if outer {
		end := r.clock.Now()
		r.comm += end - start
		// Every outermost MPI call is one span on the rank's main track —
		// the single emission point all entry points funnel through.
		if r.tr.Enabled() {
			r.tr.At(trace.TrackMain, start).SpanAt(trace.LMPI, name, start, end-start)
		}
	}
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the job's rank count.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Now returns the rank's virtual clock.
func (r *Rank) Now() simtime.Ticks { return r.clock.Now() }

// Node exposes the rank's host.
func (r *Rank) Node() *node.Node { return r.node }

// AS exposes the rank's address space.
func (r *Rank) AS() *vm.AddressSpace { return r.as }

// Verbs exposes the rank's verbs context.
func (r *Rank) Verbs() *verbs.Context { return r.ctx }

// Cache exposes the rank's registration cache.
func (r *Rank) Cache() *regcache.Cache { return r.cache }

// DTLB exposes the rank's TLB simulator (the memmodel charges through it).
func (r *Rank) DTLB() *tlb.DTLB { return r.dtlb }

// CommTime is the rank's total time inside outermost MPI calls. The
// per-call breakdown is in the trace: one mpi span per outermost call,
// named by the call.
func (r *Rank) CommTime() simtime.Ticks { return r.comm }

// ComputeTime is the rank's total application time: compute phases,
// allocator calls, tier migrations and policy demotion splits.
func (r *Rank) ComputeTime() simtime.Ticks { return r.compute }

// computeYieldTicks is the compute-phase granularity at which a rank
// hands the baton back to the scheduler: phases at least this long
// become scheduled events, so the event order tracks virtual time even
// through compute-heavy stretches, while short TLB-walk charges stay
// yield-free.
const computeYieldTicks = simtime.Millisecond

// Compute advances the rank's clock by application time and records it.
// Long phases yield to the scheduler so they become events on the run
// queue rather than opaque stretches (no cost attribution changes: the
// clock has already advanced when the yield happens).
func (r *Rank) Compute(d simtime.Ticks) {
	if r.tr.Enabled() && d > 0 {
		r.tctx(&r.clock).Span(trace.LApp, "compute", d)
	}
	r.clock.Advance(d)
	r.compute += d
	// The compute path is the adaptive policy's heartbeat: window
	// boundaries are checked here, and any demotion's split cost is
	// charged to the rank like the application work it interrupts.
	if pol := r.node.Policy(); pol != nil {
		r.cur.Set(r.clock.Now())
		if c := pol.Tick(r.clock.Now()); c > 0 {
			if r.tr.Enabled() {
				r.tctx(&r.clock).Span(trace.LPolicy, "demote.split", c)
			}
			r.clock.Advance(c)
			r.compute += c
		}
	}
	if d >= computeYieldTicks {
		r.task.Yield()
	}
}

// Malloc allocates through the rank's allocation library, charging the
// allocator's own time to the compute side of the profile (that is where
// the Abinit +1.5 % lives).
func (r *Rank) Malloc(n uint64) (vm.VA, error) {
	r.cur.Set(r.clock.Now()) // position the vm/phys instant markers
	before := r.alloc.Stats().Ticks
	va, err := r.alloc.Alloc(n)
	if err != nil {
		return 0, err
	}
	d := r.alloc.Stats().Ticks - before
	if r.tr.Enabled() {
		r.tctx(&r.clock).Span(trace.LAlloc, "malloc", d, trace.I64("bytes", int64(n)))
	}
	r.clock.Advance(d)
	r.compute += d
	return va, nil
}

// Free releases a buffer, invalidating any cached registration over it
// first (a correctness requirement of lazy deregistration).
func (r *Rank) Free(va vm.VA) error {
	r.cur.Set(r.clock.Now())
	inv, err := r.cache.Invalidate(va, r.alloc.UsableSize(va))
	if err != nil {
		return err
	}
	before := r.alloc.Stats().Ticks
	if err := r.alloc.Free(va); err != nil {
		return err
	}
	d := r.alloc.Stats().Ticks - before
	if r.tr.Enabled() {
		r.tctx(&r.clock).Span(trace.LAlloc, "free", d+inv)
	}
	r.clock.Advance(d + inv)
	r.compute += d + inv
	return nil
}

// WriteBytes stores p at va, walking the DTLB for every page touched —
// application stores of a communication buffer are ordinary data
// accesses, so they show up in the node's TLB telemetry and pay the walk
// penalty like any other compute.
func (r *Rank) WriteBytes(va vm.VA, p []byte) error {
	if err := r.as.Write(va, p); err != nil {
		return err
	}
	r.touchPages(va, uint64(len(p)))
	return nil
}

// WriteRamp stores the n bytes byte(c), byte(c+1), …, byte(c+n-1) at
// va, the payload pattern of the benchmarks and workloads, and charges
// the same page touches as WriteBytes of those bytes.
func (r *Rank) WriteRamp(va vm.VA, c, n int) error {
	if err := r.as.WriteRamp(va, c, n); err != nil {
		return err
	}
	r.touchPages(va, uint64(n))
	return nil
}

// ReadBytes loads len(p) bytes from va (TLB-charged like WriteBytes).
func (r *Rank) ReadBytes(va vm.VA, p []byte) error {
	if err := r.as.Read(va, p); err != nil {
		return err
	}
	r.touchPages(va, uint64(len(p)))
	return nil
}

// Touch charges exactly the page touches of ReadBytes of n bytes at va
// without copying them out: an application read whose values nothing
// uses. It charges nothing and fails if any byte of the range is
// unmapped.
func (r *Rank) Touch(va vm.VA, n int) error {
	if err := r.as.CheckMapped(va, n); err != nil {
		return err
	}
	r.touchPages(va, uint64(max(n, 0)))
	return nil
}

// touchPages performs one DTLB access per page of [va, va+n) and charges
// the walk penalties as application compute. When the node runs a tiered
// memory model, each page touch also pays its tier's access penalty —
// a slow-tier page costs extra latency (and streaming time) on top of
// the TLB walk, which is how tier placement reaches virtual time.
func (r *Rank) touchPages(va vm.VA, n uint64) {
	var d simtime.Ticks
	tiers := r.node.Tiers
	for off := uint64(0); off < n; {
		pa, class, err := r.as.Translate(va + vm.VA(off))
		if err != nil {
			return // unmapped tail; the Write/Read already failed loudly
		}
		ps := class.Size()
		d += r.dtlb.Access(va+vm.VA(off), class)
		next := (uint64(va)+off)/ps*ps + ps
		newOff := next - uint64(va)
		if tiers != nil {
			touched := newOff
			if touched > n {
				touched = n
			}
			touched -= off
			base := uint64(pa) / ps * ps
			d += tiers.Touch(memtier.PageRef{
				Frame: phys.Frame(base / machine.SmallPageSize),
				Bytes: ps,
			}, touched)
		}
		off = newOff
	}
	if d > 0 {
		r.Compute(d)
	}
}

// pageRefs enumerates [va, va+n) as memtier page refs (base frames),
// in the rank's reused buffers: the refs are valid until the next call.
func (r *Rank) pageRefs(va vm.VA, n uint64) ([]memtier.PageRef, error) {
	pages, err := r.as.Pages(r.pageBuf[:0], va, n)
	if err != nil {
		return nil, err
	}
	r.pageBuf = pages
	refs := r.refBuf[:0]
	for _, p := range pages {
		refs = append(refs, memtier.PageRef{
			Frame: phys.Frame(uint64(p.PA) / machine.SmallPageSize),
			Bytes: p.Class.Size(),
		})
	}
	r.refBuf = refs
	return refs, nil
}

// TierOf reports which memory tier the page backing va resides in
// (first-touch placing it like any access would); -1 when the node has
// no tiered memory.
func (r *Rank) TierOf(va vm.VA) int {
	tiers := r.node.Tiers
	if tiers == nil {
		return -1
	}
	pa, class, err := r.as.Translate(va)
	if err != nil {
		return -1
	}
	ps := class.Size()
	return tiers.TierOf(memtier.PageRef{
		Frame: phys.Frame(uint64(pa) / ps * ps / machine.SmallPageSize),
		Bytes: ps,
	})
}

// TierAssign first-touch places the pages of [va, va+n) in the given
// tier (spilling down-stack when full) without any copy cost — the
// placement hint for freshly allocated data.
func (r *Rank) TierAssign(va vm.VA, n uint64, tier int) error {
	tiers := r.node.Tiers
	if tiers == nil || n == 0 {
		return nil
	}
	refs, err := r.pageRefs(va, n)
	if err != nil {
		return err
	}
	tiers.Assign(refs, tier)
	return nil
}

// TierMigrate moves the pages of [va, va+n) to the given tier, charging
// the modeled copy cost to the rank's clock as application compute.
// It returns the pages actually moved (pages already there, or not
// fitting a bounded destination, stay put).
func (r *Rank) TierMigrate(va vm.VA, n uint64, tier int) (int, error) {
	tiers := r.node.Tiers
	if tiers == nil || n == 0 {
		return 0, nil
	}
	refs, err := r.pageRefs(va, n)
	if err != nil {
		return 0, err
	}
	r.cur.Set(r.clock.Now()) // position the tier-layer instant markers
	moved, cost := tiers.Migrate(refs, tier)
	if cost > 0 {
		if r.tr.Enabled() {
			r.tctx(&r.clock).Span(trace.LTier, "migrate", cost,
				trace.I64("tier", int64(tier)), trace.I64("pages", int64(moved)))
		}
		r.clock.Advance(cost)
		r.compute += cost
	}
	return moved, nil
}

// TierPromote moves [va, va+n) to the fast tier (tier 0).
func (r *Rank) TierPromote(va vm.VA, n uint64) (int, error) {
	return r.TierMigrate(va, n, 0)
}

// TierDemote moves [va, va+n) to the slowest tier.
func (r *Rank) TierDemote(va vm.VA, n uint64) (int, error) {
	tiers := r.node.Tiers
	if tiers == nil {
		return 0, nil
	}
	return r.TierMigrate(va, n, tiers.TierCount()-1)
}

// f64Chunk is how many float64s WriteF64 and ReadF64 encode per address
// space call: one 4 KiB stack buffer, so neither allocates a bounce copy.
const f64Chunk = 512

// WriteF64 stores a float64 slice at va (little-endian).
func (r *Rank) WriteF64(va vm.VA, xs []float64) error {
	var buf [8 * f64Chunk]byte
	for len(xs) > 0 {
		n := min(len(xs), f64Chunk)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		if err := r.as.Write(va, buf[:8*n]); err != nil {
			return err
		}
		va += vm.VA(8 * n)
		xs = xs[n:]
	}
	return nil
}

// ReadF64 fills xs with the float64s stored at va (little-endian).
func (r *Rank) ReadF64(va vm.VA, xs []float64) error {
	var buf [8 * f64Chunk]byte
	for len(xs) > 0 {
		n := min(len(xs), f64Chunk)
		if err := r.as.Read(va, buf[:8*n]); err != nil {
			return err
		}
		for i := range xs[:n] {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		va += vm.VA(8 * n)
		xs = xs[n:]
	}
	return nil
}

// memcpyTicks is the CPU cost of copying n bytes (eager bounce copies).
func (r *Rank) memcpyTicks(n int) simtime.Ticks {
	return simtime.BandwidthTicks(int64(n), r.world.cfg.Machine.Mem.CopyBandwidthMBs)
}

// ctrlWire is the wire cost of a small control message (RTS/CTS).
func (r *Rank) ctrlWire() simtime.Ticks { return r.ctx.HW.WireCost(64) }

// checkPeer validates a peer rank number.
func (r *Rank) checkPeer(peer int) error {
	if peer < 0 || peer >= r.Size() || peer == r.id {
		return fmt.Errorf("mpi: rank %d: bad peer %d", r.id, peer)
	}
	return nil
}

// matchRecv pops the next message from src with the given tag, keeping
// unexpected messages queued in arrival order. It returns nil if the job
// aborted while waiting (a peer rank failed); messages already delivered
// before the failure still match.
func (r *Rank) matchRecv(t *sched.Task, src, tag int) *message {
	q := r.pending[src]
	for i, m := range q {
		if m.tag == tag {
			// slices.Delete clears the vacated tail slot, so the queue
			// keeps no stale alias of a message that will be recycled.
			r.pending[src] = slices.Delete(q, i, i+1)
			return m
		}
	}
	in := r.inboxQ(src)
	for {
		m, ok := in.Pop(t)
		if !ok {
			return nil
		}
		if m.tag == tag {
			return m
		}
		r.pending[src] = append(r.pending[src], m)
	}
}
