// Package regcache implements the pin-down cache / lazy deregistration
// strategy of MPICH2-CH3-IB and MVAPICH2 that the paper uses as its
// baseline optimisation: "a pool of already registered memory is hold, so
// that memory registration is done only once for each virtual address".
//
// It also models the drawback the paper calls out — pinned memory
// "remains allocated to the application during their whole runtime" — by
// tracking the pinned-byte gauge and supporting an eviction bound.
package regcache

import (
	"container/list"
	"errors"
	"sort"

	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/verbs"
	"repro/internal/vm"
)

// sortMRs orders registrations by (VA, LKey) — a deterministic
// deregistration order for MR sets collected from map iteration, so
// same-seed runs replay identical dereg sequences. LKey breaks ties
// between zombie generations sharing a VA.
func sortMRs(mrs []*verbs.MR) {
	sort.Slice(mrs, func(i, j int) bool {
		if mrs[i].VA != mrs[j].VA {
			return mrs[i].VA < mrs[j].VA
		}
		return mrs[i].LKey < mrs[j].LKey
	})
}

// lookupTicks is the cost of probing the registration cache (a small
// tree/hash walk in the MPI library).
const lookupTicks = simtime.Ticks(40)

// memlockRetryLimit bounds how many evict-and-retry rounds Acquire runs
// when registration fails at the RLIMIT_MEMLOCK ceiling. Each round
// drops enough idle LRU entries to cover the request, so a round that
// evicted something and still failed means live registrations hold the
// budget — more rounds can't help for long, and an unbounded loop could
// live-lock two ranks registering in lockstep.
const memlockRetryLimit = 3

// Stats counts cache behaviour.
type Stats struct {
	Hits, Misses int64
	Evictions    int64
	PinnedBytes  int64 // current gauge: the paper's "less available physical memory" drawback
	PeakPinned   int64
	RegTicks     simtime.Ticks // time spent registering on misses
	DeregTicks   simtime.Ticks
	// MemlockRetries counts registrations that succeeded only after
	// evicting idle entries at the RLIMIT_MEMLOCK ceiling;
	// MemlockEvictions counts the entries dropped to make room.
	MemlockRetries   int64
	MemlockEvictions int64
}

type entry struct {
	mr  *verbs.MR
	ele *list.Element
	// refs counts Acquires not yet Released; an entry in use is never
	// deregistered, only marked zombie and torn down on final Release.
	refs   int
	zombie bool
}

// Cache is one rank's registration cache over a verbs context.
type Cache struct {
	ctx *verbs.Context
	// Lazy enables lazy deregistration. When false every Acquire
	// registers and every Release deregisters — the paper's
	// "deactivated lazy deregistration" configuration of Figure 5.
	Lazy bool
	// MaxPinned bounds pinned bytes; 0 means unbounded. Exceeding it
	// evicts least-recently-used regions.
	MaxPinned int64

	// pol, when set, is consulted per acquire to choose lazy-vs-eager
	// deregistration for that registration, overriding Lazy. Installed
	// once at node construction, before any traffic.
	pol Decider

	entries map[vm.VA]*entry     // keyed by region base
	byMR    map[*verbs.MR]*entry // every live entry, incl. zombies
	lru     *list.List           // front = most recent; values are vm.VA
	stats   Stats
}

// Decider chooses eager-vs-lazy deregistration per registration.
// internal/policy implements it; the interface lives here so the cache
// needs no policy import.
type Decider interface {
	// DecideLazy reports whether the registration of [va, va+length)
	// should stay cached (lazy deregistration). lazyDefault is the
	// cache's configured mode; maxPinned and pinnedBytes describe the
	// pinning budget and its current use.
	DecideLazy(va vm.VA, length uint64, lazyDefault bool, maxPinned, pinnedBytes int64) bool
}

// SetPolicy installs the per-acquire deregistration policy. Call before
// any traffic; nil restores the configured Lazy mode for every acquire.
func (c *Cache) SetPolicy(d Decider) { c.pol = d }

// New builds a cache over a verbs context.
func New(ctx *verbs.Context, lazy bool) *Cache {
	return &Cache{
		ctx:     ctx,
		Lazy:    lazy,
		entries: make(map[vm.VA]*entry),
		byMR:    make(map[*verbs.MR]*entry),
		lru:     list.New(),
	}
}

// Acquire returns a registration covering [va, va+length) plus the
// virtual time the call consumed. With lazy deregistration a previously
// registered region containing the range is reused.
//
// Requests are rounded to page boundaries of the underlying mapping
// before registration — the kernel pins whole pages regardless, and this
// is what lets byte-level message-length jitter (IS's varying partition
// sizes) reuse a cached registration.
func (c *Cache) Acquire(va vm.VA, length uint64) (*verbs.MR, simtime.Ticks, error) {
	return c.AcquireT(trace.Ctx{}, va, length)
}

// AcquireT is Acquire with tracing: the call is recorded as a
// regcache-layer "acquire" span at tc's position, with the cache
// lookup's outcome in its args and the registration work (RegMR spans,
// synchronous memlock evictions) nested inside. A zero Ctx records
// nothing and follows the exact untraced code path.
func (c *Cache) AcquireT(tc trace.Ctx, va vm.VA, length uint64) (*verbs.MR, simtime.Ticks, error) {
	if _, class, err := c.ctx.AS.Translate(va); err == nil {
		ps := class.Size()
		end := (uint64(va) + length + ps - 1) / ps * ps
		va = vm.VA(uint64(va) / ps * ps)
		length = end - uint64(va)
	}
	lazy := c.Lazy
	if c.pol != nil {
		lazy = c.pol.DecideLazy(va, length, c.Lazy, c.MaxPinned, c.stats.PinnedBytes)
	}
	if !lazy {
		mr, cost, err := c.ctx.RegMRT(tc, va, length)
		if err != nil {
			return nil, 0, err
		}
		c.stats.Misses++
		c.stats.RegTicks += cost
		return mr, cost, nil
	}
	cost := lookupTicks
	// Exact-base fast path, then containment scan.
	if e, ok := c.entries[va]; ok && e.mr.Length >= length {
		c.lru.MoveToFront(e.ele)
		e.refs++
		c.stats.Hits++
		if tc.Enabled() {
			tc.SpanAt(trace.LRegcache, "acquire", tc.Now(), cost,
				trace.I64("bytes", int64(length)), trace.I64("hit", 1))
		}
		return e.mr, cost, nil
	}
	// Several cached regions can contain the range (overlapping
	// page-rounded registrations at shifted displacements — IS's key
	// exchange produces exactly this), so the winner must be a pure
	// function of the cache contents: take the lowest base, never the
	// first map-iteration match. Bases are unique (the map key), so
	// lowest-base is a total order.
	var best *entry
	for _, e := range c.entries {
		if e.mr.VA <= va && uint64(va)+length <= uint64(e.mr.VA)+e.mr.Length {
			if best == nil || e.mr.VA < best.mr.VA {
				best = e
			}
		}
	}
	if best != nil {
		c.lru.MoveToFront(best.ele)
		best.refs++
		c.stats.Hits++
		if tc.Enabled() {
			tc.SpanAt(trace.LRegcache, "acquire", tc.Now(), cost,
				trace.I64("bytes", int64(length)), trace.I64("hit", 1))
		}
		return best.mr, cost, nil
	}
	c.stats.Misses++

	mr, regCost, err := c.regWithEvict(tc.Advance(lookupTicks), va, length)
	if err != nil {
		return nil, 0, err
	}
	cost += regCost
	if tc.Enabled() {
		tc.SpanAt(trace.LRegcache, "acquire", tc.Now(), cost,
			trace.I64("bytes", int64(length)), trace.I64("hit", 0))
	}
	c.stats.RegTicks += regCost
	// A re-registration at the same base (e.g. a longer slice of the
	// same buffer) supersedes the old entry; the old registration is
	// torn down — immediately if idle, on final Release if in use — so
	// pins and pinned-byte accounting cannot leak.
	var stale []*verbs.MR
	if old, ok := c.entries[va]; ok {
		stale = append(stale, c.retire(old)...)
	}
	e := &entry{mr: mr, refs: 1}
	e.ele = c.lru.PushFront(mr.VA)
	c.entries[mr.VA] = e
	c.byMR[mr] = e
	c.stats.PinnedBytes += int64(mr.Length)
	if c.stats.PinnedBytes > c.stats.PeakPinned {
		c.stats.PeakPinned = c.stats.PinnedBytes
	}
	stale = append(stale, c.evict()...)
	// Deregistration of superseded/evicted regions happens off the
	// critical path (MVAPICH2 defers it to a garbage list), so no time
	// is charged to this Acquire — the trace records them as instant
	// markers, not spans.
	if tc.Enabled() && len(stale) > 0 {
		tc.Advance(cost).Event(trace.LRegcache, "evict.deferred",
			trace.I64("count", int64(len(stale))))
	}
	for _, victim := range stale {
		if _, err := c.ctx.DeregMR(victim); err != nil {
			return nil, 0, err
		}
	}
	return mr, cost, nil
}

// regWithEvict registers [va, va+length), recovering from registration
// failures at the RLIMIT_MEMLOCK ceiling by evicting idle
// least-recently-used entries and retrying, a bounded number of rounds.
// This is the graceful-degradation half of the memlock model: the pin-
// down cache trades its oldest idle registrations for the one the
// transfer needs right now. The returned cost includes the synchronous
// deregistrations — unlike normal (deferred) eviction, the caller is
// stalled on them.
func (c *Cache) regWithEvict(tc trace.Ctx, va vm.VA, length uint64) (*verbs.MR, simtime.Ticks, error) {
	mr, cost, err := c.ctx.RegMRT(tc, va, length)
	tc = tc.Advance(cost)
	for attempt := 0; err != nil && errors.Is(err, verbs.ErrMemlockExceeded) && attempt < memlockRetryLimit; attempt++ {
		victims := c.evictForMemlock(int64(length))
		if len(victims) == 0 {
			break // everything pinned is in use; the ceiling is real
		}
		for _, victim := range victims {
			d, derr := c.ctx.DeregMRT(tc, victim)
			if derr != nil {
				return nil, 0, derr
			}
			cost += d
			tc = tc.Advance(d)
		}
		c.stats.MemlockRetries++
		var rc simtime.Ticks
		mr, rc, err = c.ctx.RegMRT(tc, va, length)
		cost += rc
		tc = tc.Advance(rc)
	}
	if err != nil {
		return nil, 0, err
	}
	return mr, cost, nil
}

// evictForMemlock picks idle LRU entries covering at least `need`
// bytes and retires them. Callers deregister the returned MRs.
func (c *Cache) evictForMemlock(need int64) []*verbs.MR {
	var victims []*verbs.MR
	freed := int64(0)
	for ele := c.lru.Back(); ele != nil && freed < need; {
		prev := ele.Prev()
		if e := c.entries[ele.Value.(vm.VA)]; e != nil && e.refs == 0 {
			freed += int64(e.mr.Length)
			c.stats.Evictions++
			c.stats.MemlockEvictions++
			victims = append(victims, c.retire(e)...)
		}
		ele = prev
	}
	return victims
}

// retire removes an entry from the cache index. It returns the MR
// to deregister now if the entry is idle; an in-use entry becomes a
// zombie deregistered on final Release.
func (c *Cache) retire(e *entry) []*verbs.MR {
	c.lru.Remove(e.ele)
	delete(c.entries, e.mr.VA)
	c.stats.PinnedBytes -= int64(e.mr.Length)
	if e.refs > 0 {
		e.zombie = true
		return nil
	}
	delete(c.byMR, e.mr)
	return []*verbs.MR{e.mr}
}

// evict enforces MaxPinned and returns the victims to deregister.
// In-use entries are skipped (their pins cannot be dropped mid-transfer).
func (c *Cache) evict() []*verbs.MR {
	if c.MaxPinned <= 0 {
		return nil
	}
	var victims []*verbs.MR
	ele := c.lru.Back()
	for c.stats.PinnedBytes > c.MaxPinned && ele != nil {
		prev := ele.Prev()
		e := c.entries[ele.Value.(vm.VA)]
		if e != nil && e.refs == 0 {
			c.stats.Evictions++
			victims = append(victims, c.retire(e)...)
		}
		ele = prev
	}
	return victims
}

// Release returns a registration after use. Lazy mode keeps it pinned
// (deregistering only zombies whose last user just left); otherwise it
// deregisters immediately and returns that cost.
func (c *Cache) Release(mr *verbs.MR) (simtime.Ticks, error) {
	return c.ReleaseT(trace.Ctx{}, mr)
}

// ReleaseT is Release with tracing: an eager (non-lazy) deregistration
// emits its DeregMR span at tc; a zombie teardown — uncharged, off the
// critical path — is recorded as an instant marker.
func (c *Cache) ReleaseT(tc trace.Ctx, mr *verbs.MR) (simtime.Ticks, error) {
	// Cache membership, not the configured mode, decides the path: a
	// policy can register eagerly inside a lazy cache, and that MR was
	// never inserted — it must be deregistered here or its pins leak.
	if e, cached := c.byMR[mr]; cached {
		if e.refs > 0 {
			e.refs--
		}
		if e.zombie && e.refs == 0 {
			delete(c.byMR, mr)
			if tc.Enabled() {
				tc.Event(trace.LRegcache, "zombie.dereg", trace.I64("bytes", int64(mr.Length)))
			}
			if _, err := c.ctx.DeregMR(mr); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	cost, err := c.ctx.DeregMRT(tc, mr)
	if err != nil {
		return 0, err
	}
	c.stats.DeregTicks += cost
	return cost, nil
}

// Invalidate removes any cached registration whose region intersects
// [va, va+length) — required when the application frees or unmaps memory,
// otherwise the cache would hand out stale translations. Regions still in
// use become zombies and are torn down on final Release.
func (c *Cache) Invalidate(va vm.VA, length uint64) (simtime.Ticks, error) {
	var victims []*verbs.MR
	for _, e := range c.entries {
		if va < e.mr.VA+vm.VA(e.mr.Length) && e.mr.VA < va+vm.VA(length) {
			victims = append(victims, c.retire(e)...)
		}
	}
	sortMRs(victims)
	var cost simtime.Ticks
	for _, mr := range victims {
		d, err := c.ctx.DeregMR(mr)
		if err != nil {
			return cost, err
		}
		cost += d
	}
	return cost, nil
}

// Flush deregisters everything, including zombies (rank teardown; no
// transfers may be in flight).
func (c *Cache) Flush() error {
	var all []*verbs.MR
	for mr := range c.byMR {
		all = append(all, mr)
	}
	c.entries = make(map[vm.VA]*entry)
	c.byMR = make(map[*verbs.MR]*entry)
	c.lru.Init()
	c.stats.PinnedBytes = 0
	sortMRs(all)
	for _, mr := range all {
		if _, err := c.ctx.DeregMR(mr); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot.
func (c *Cache) Stats() Stats {
	return c.stats
}

// Len reports the number of cached registrations.
func (c *Cache) Len() int {
	return len(c.entries)
}
