package node

import (
	"repro/internal/memtier"
	"repro/internal/simtime"
)

// Stats is one snapshot of every layer's counters on a node — the single
// telemetry surface of the simulated host. All fields are cumulative
// since node construction, except the gauges noted. It marshals to JSON
// for the -stats flags of the cmd/ tools.
type Stats struct {
	Machine   string `json:"machine"`
	Allocator string `json:"allocator"`

	TLB     TLBStats     `json:"tlb"`
	HCA     HCAStats     `json:"hca"`
	Reg     RegStats     `json:"reg"`
	Cache   CacheStats   `json:"regcache"`
	Alloc   AllocStats   `json:"alloc"`
	Mem     MemStats     `json:"mem"`
	Faults  FaultStats   `json:"faults"`
	Policy  PolicyStats  `json:"policy"`
	Memtier MemtierStats `json:"memtier"`
	Coll    CollStats    `json:"coll"`
}

// TierStat is one memory tier's counter set within MemtierStats. A
// capacity of 0 means unbounded.
type TierStat struct {
	Name          string        `json:"name,omitempty"`
	CapacityBytes int64         `json:"capacity_bytes"`
	UsedBytes     int64         `json:"used_bytes"` // gauge
	PeakBytes     int64         `json:"peak_bytes"`
	Assigns       int64         `json:"assigns"`
	Spills        int64         `json:"spills"`
	TouchTicks    simtime.Ticks `json:"touch_ticks"`
}

// MemtierStats surfaces the internal/memtier manager's counters. The
// Stats surface keeps the canonical fast/slow split so the struct stays
// comparable (statscheck compares totals with ==): Fast is tier 0 and
// Slow aggregates every slower tier — exact for the standard two-tier
// stack. All zeros when tiering is disabled.
type MemtierStats struct {
	Fast          TierStat      `json:"fast"`
	Slow          TierStat      `json:"slow"`
	Promotions    int64         `json:"promotions"`
	Demotions     int64         `json:"demotions"`
	MigratedBytes int64         `json:"migrated_bytes"`
	MigrateTicks  simtime.Ticks `json:"migrate_ticks"`
}

// CollStats counts the scheduler-native Alltoallv collectives: how
// many completed on this rank, the pairwise exchange steps they ran,
// and the bytes they moved (local self-block copies counted
// separately from wire traffic).
type CollStats struct {
	Alltoallvs     int64 `json:"alltoallvs"`
	PairwiseSteps  int64 `json:"pairwise_steps"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesRecv      int64 `json:"bytes_recv"`
	LocalCopyBytes int64 `json:"local_copy_bytes"`
}

// PolicyStats counts the placement-policy engine's decisions at its
// three hook points, plus the adaptive policy's windowed demotions. All
// zeros (and Kind empty) when no policy engine is configured.
type PolicyStats struct {
	Kind            string        `json:"kind,omitempty"`
	PlaceHuge       int64         `json:"place_huge"`
	PlaceSmall      int64         `json:"place_small"`
	CacheLazy       int64         `json:"cache_lazy"`
	CacheEager      int64         `json:"cache_eager"`
	SGEGather       int64         `json:"sge_gather"`
	SGEPack         int64         `json:"sge_pack"`
	Windows         int64         `json:"windows"`
	DemoteDecisions int64         `json:"demote_decisions"`
	DemotedPages    int64         `json:"demoted_pages"`
	DemotedBytes    int64         `json:"demoted_bytes"`
	DemoteTicks     simtime.Ticks `json:"demote_ticks"`
	TierMigrates    int64         `json:"tier_migrates"`
	TierRecomputes  int64         `json:"tier_recomputes"`
}

// TLBStats is the data-TLB split by page size.
type TLBStats struct {
	Hits4K   int64 `json:"hits_4k"`
	Misses4K int64 `json:"misses_4k"`
	Hits2M   int64 `json:"hits_2m"`
	Misses2M int64 `json:"misses_2m"`
}

// Misses is the total miss count over both page sizes (PAPI_TLB_DM).
func (t TLBStats) Misses() int64 { return t.Misses4K + t.Misses2M }

// HCAStats covers the adapter: translation cache, work requests, and the
// bytes its DMA engines moved over the IO bus.
type HCAStats struct {
	ATTHits      int64 `json:"att_hits"`
	ATTMisses    int64 `json:"att_misses"`
	MTTEntries   int64 `json:"mtt_entries"` // gauge: currently installed
	PostedWRs    int64 `json:"posted_wrs"`
	CQEs         int64 `json:"cqes"`
	BytesGather  int64 `json:"bytes_gather"`
	BytesScatter int64 `json:"bytes_scatter"`
	BusBytes     int64 `json:"bus_bytes"` // gather + scatter
}

// RegStats covers verbs-level memory registration.
type RegStats struct {
	Registrations   int64         `json:"registrations"`
	Deregistrations int64         `json:"deregistrations"`
	RegTicks        simtime.Ticks `json:"reg_ticks"`
	DeregTicks      simtime.Ticks `json:"dereg_ticks"`
	PagesPinned     int64         `json:"pages_pinned"` // gauge: pages currently pinned
	PinnedBytes     int64         `json:"pinned_bytes"` // gauge: what RLIMIT_MEMLOCK meters
}

// CacheStats covers the pin-down registration cache.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	PinnedBytes int64 `json:"pinned_bytes"` // gauge
	PeakPinned  int64 `json:"peak_pinned"`
}

// AllocStats covers the allocation library.
type AllocStats struct {
	Allocs     int64         `json:"allocs"`
	Frees      int64         `json:"frees"`
	Ticks      simtime.Ticks `json:"ticks"`
	Syscalls   int64         `json:"syscalls"`
	HugeBytes  int64         `json:"huge_bytes"`  // gauge
	SmallBytes int64         `json:"small_bytes"` // gauge
	LiveBytes  int64         `json:"live_bytes"`  // gauge
	PeakLive   int64         `json:"peak_live"`
	// FallbackToSmall counts hugepage-library requests the Figure 2
	// decision redirected to libc because the pool ran dry;
	// FallbackBytes is their cumulative size.
	FallbackToSmall int64 `json:"fallback_to_small"`
	FallbackBytes   int64 `json:"fallback_bytes"`
}

// MemStats covers physical memory and the address space: the
// hugepage-pool usage behind the paper's "less available physical
// memory" drawback.
type MemStats struct {
	HugePagesUsed     int64 `json:"huge_pages_used"` // gauge
	HugePagesPeak     int64 `json:"huge_pages_peak"`
	HugeFailures      int64 `json:"huge_failures"`
	MappedSmall       int64 `json:"mapped_small"` // gauge
	MappedHuge        int64 `json:"mapped_huge"`  // gauge
	HugeFallbacks     int64 `json:"huge_fallbacks"`
	HugeFallbackBytes int64 `json:"huge_fallback_bytes"`
}

// FaultStats aggregates every injected fault and every recovery the
// stack performed — the "behavior under pressure" record. With no fault
// spec it is all zeros (and Spec is empty).
type FaultStats struct {
	// Spec echoes the active fault configuration in -faults syntax.
	Spec string `json:"spec,omitempty"`
	// InjectedHugeFails / PoolPagesRemoved: hugepage-pool pressure
	// (spurious allocation refusals; pages dropped by cap + shrink).
	InjectedHugeFails int64 `json:"injected_huge_fails"`
	PoolPagesRemoved  int64 `json:"pool_pages_removed"`
	// Memlock ceiling: refused registrations, and the pin-down cache's
	// evict-and-retry recoveries.
	MemlockLimit      int64 `json:"memlock_limit,omitempty"`
	MemlockRejections int64 `json:"memlock_rejections"`
	MemlockRetries    int64 `json:"memlock_retries"`
	MemlockEvictions  int64 `json:"memlock_evictions"`
	// Transient completion errors injected and the MPI layer's reposts.
	WRErrors  int64 `json:"wr_errors"`
	WRRetries int64 `json:"wr_retries"`
	// Cached HCA translations dropped by injected forced eviction.
	ATTEvictions int64 `json:"att_evictions"`
}

// Stats snapshots every layer of the node.
func (n *Node) Stats() Stats {
	small := n.DTLB.Small.Stats()
	large := n.DTLB.Large.Stats()
	hw := n.Verbs.HW.Stats()
	reg := n.Verbs.Stats()
	rc := n.Cache.Stats()
	al := n.Alloc.Stats()
	pm := n.Mem.Stats()
	as := n.AS.Stats()
	fj := n.inj.Stats()
	ps := n.pol.Stats()
	return Stats{
		Machine:   n.cfg.Machine.Name,
		Allocator: string(n.cfg.Allocator),
		TLB: TLBStats{
			Hits4K:   small.Hits,
			Misses4K: small.Misses,
			Hits2M:   large.Hits,
			Misses2M: large.Misses,
		},
		HCA: HCAStats{
			ATTHits:      hw.ATTHits,
			ATTMisses:    hw.ATTMisses,
			MTTEntries:   hw.MTTEntries,
			PostedWRs:    hw.PostedWRs,
			CQEs:         hw.CQEs,
			BytesGather:  hw.BytesGather,
			BytesScatter: hw.BytesScatter,
			BusBytes:     hw.BytesGather + hw.BytesScatter,
		},
		Reg: RegStats{
			Registrations:   reg.Registrations,
			Deregistrations: reg.Deregistrations,
			RegTicks:        reg.RegTicks,
			DeregTicks:      reg.DeregTicks,
			PagesPinned:     reg.PagesPinned,
			PinnedBytes:     reg.PinnedBytes,
		},
		Cache: CacheStats{
			Hits:        rc.Hits,
			Misses:      rc.Misses,
			Evictions:   rc.Evictions,
			PinnedBytes: rc.PinnedBytes,
			PeakPinned:  rc.PeakPinned,
		},
		Alloc: AllocStats{
			Allocs:          al.Allocs,
			Frees:           al.Frees,
			Ticks:           al.Ticks,
			Syscalls:        al.Syscalls,
			HugeBytes:       al.HugeBytes,
			SmallBytes:      al.SmallBytes,
			LiveBytes:       al.LiveBytes,
			PeakLive:        al.PeakLive,
			FallbackToSmall: al.FallbackToSmall,
			FallbackBytes:   al.FallbackBytes,
		},
		Mem: MemStats{
			HugePagesUsed:     int64(pm.HugeAllocated),
			HugePagesPeak:     int64(pm.HugePeak),
			HugeFailures:      pm.HugeFailures,
			MappedSmall:       as.MappedSmall,
			MappedHuge:        as.MappedHuge,
			HugeFallbacks:     as.HugeFallbacks,
			HugeFallbackBytes: as.HugeFallbackBytes,
		},
		Faults: FaultStats{
			Spec:              n.inj.Spec().String(),
			InjectedHugeFails: pm.HugeInjected,
			PoolPagesRemoved:  pm.HugeRemoved,
			MemlockLimit:      n.inj.MemlockLimit(),
			MemlockRejections: reg.MemlockRejections,
			MemlockRetries:    rc.MemlockRetries,
			MemlockEvictions:  rc.MemlockEvictions,
			WRErrors:          fj.WRErrors,
			WRRetries:         fj.WRRetries,
			ATTEvictions:      hw.ATTEvictions,
		},
		Policy: PolicyStats{
			Kind:            string(ps.Kind),
			PlaceHuge:       ps.PlaceHuge,
			PlaceSmall:      ps.PlaceSmall,
			CacheLazy:       ps.CacheLazy,
			CacheEager:      ps.CacheEager,
			SGEGather:       ps.SGEGather,
			SGEPack:         ps.SGEPack,
			Windows:         ps.Windows,
			DemoteDecisions: ps.DemoteDecisions,
			DemotedPages:    ps.DemotedPages,
			DemotedBytes:    ps.DemotedBytes,
			DemoteTicks:     ps.DemoteTicks,
			TierMigrates:    ps.TierMigrates,
			TierRecomputes:  ps.TierRecomputes,
		},
		Memtier: memtierView(n.Tiers.Stats()),
		Coll:    n.coll,
	}
}

// memtierView folds an N-tier memtier snapshot into the fixed fast/slow
// stats surface: tier 0 is Fast, every slower tier aggregates into Slow
// (exact for the standard two-tier stack; a wider stack sums its slow
// tiers' counters and capacities, with capacity 0 still meaning
// unbounded because the last tier always is).
func memtierView(mt memtier.Stats) MemtierStats {
	out := MemtierStats{
		Promotions:    mt.Promotions,
		Demotions:     mt.Demotions,
		MigratedBytes: mt.MigratedBytes,
		MigrateTicks:  mt.MigrateTicks,
	}
	for i, t := range mt.Tiers {
		dst := &out.Slow
		if i == 0 {
			dst = &out.Fast
		}
		if dst.Name == "" {
			dst.Name = t.Name
		}
		dst.CapacityBytes += t.CapacityBytes
		dst.UsedBytes += t.UsedBytes //reprolint:ignore statspairing: folding another package's snapshot — aggregation, not gauge movement
		dst.PeakBytes += t.PeakBytes
		dst.Assigns += t.Assigns
		dst.Spills += t.Spills
		dst.TouchTicks += t.TouchTicks
	}
	return out
}

// Add accumulates other's counters into s. True counters and live
// gauges add (a cluster-wide total); peak gauges (Cache.PeakPinned,
// Alloc.PeakLive, Mem.HugePagesPeak) take the max instead — per-node
// highs need not coexist in time, so a sum would report a cluster-wide
// peak that never happened. The identity strings keep s's values.
func (s *Stats) Add(other Stats) {
	s.TLB.Hits4K += other.TLB.Hits4K
	s.TLB.Misses4K += other.TLB.Misses4K
	s.TLB.Hits2M += other.TLB.Hits2M
	s.TLB.Misses2M += other.TLB.Misses2M
	s.HCA.ATTHits += other.HCA.ATTHits
	s.HCA.ATTMisses += other.HCA.ATTMisses
	s.HCA.MTTEntries += other.HCA.MTTEntries
	s.HCA.PostedWRs += other.HCA.PostedWRs
	s.HCA.CQEs += other.HCA.CQEs
	s.HCA.BytesGather += other.HCA.BytesGather
	s.HCA.BytesScatter += other.HCA.BytesScatter
	s.HCA.BusBytes += other.HCA.BusBytes
	s.Reg.Registrations += other.Reg.Registrations
	s.Reg.Deregistrations += other.Reg.Deregistrations
	s.Reg.RegTicks += other.Reg.RegTicks
	s.Reg.DeregTicks += other.Reg.DeregTicks
	s.Reg.PagesPinned += other.Reg.PagesPinned
	s.Reg.PinnedBytes += other.Reg.PinnedBytes
	s.Cache.Hits += other.Cache.Hits
	s.Cache.Misses += other.Cache.Misses
	s.Cache.Evictions += other.Cache.Evictions
	s.Cache.PinnedBytes += other.Cache.PinnedBytes
	s.Cache.PeakPinned = max(s.Cache.PeakPinned, other.Cache.PeakPinned)
	s.Alloc.Allocs += other.Alloc.Allocs
	s.Alloc.Frees += other.Alloc.Frees
	s.Alloc.Ticks += other.Alloc.Ticks
	s.Alloc.Syscalls += other.Alloc.Syscalls
	s.Alloc.HugeBytes += other.Alloc.HugeBytes
	s.Alloc.SmallBytes += other.Alloc.SmallBytes
	s.Alloc.LiveBytes += other.Alloc.LiveBytes
	s.Alloc.PeakLive = max(s.Alloc.PeakLive, other.Alloc.PeakLive)
	s.Alloc.FallbackToSmall += other.Alloc.FallbackToSmall
	s.Alloc.FallbackBytes += other.Alloc.FallbackBytes
	s.Mem.HugePagesUsed += other.Mem.HugePagesUsed
	s.Mem.HugePagesPeak = max(s.Mem.HugePagesPeak, other.Mem.HugePagesPeak)
	s.Mem.HugeFailures += other.Mem.HugeFailures
	s.Mem.MappedSmall += other.Mem.MappedSmall
	s.Mem.MappedHuge += other.Mem.MappedHuge
	s.Mem.HugeFallbacks += other.Mem.HugeFallbacks
	s.Mem.HugeFallbackBytes += other.Mem.HugeFallbackBytes
	if s.Faults.Spec == "" {
		s.Faults.Spec = other.Faults.Spec
	}
	if s.Faults.MemlockLimit == 0 {
		s.Faults.MemlockLimit = other.Faults.MemlockLimit
	}
	s.Faults.InjectedHugeFails += other.Faults.InjectedHugeFails
	s.Faults.PoolPagesRemoved += other.Faults.PoolPagesRemoved
	s.Faults.MemlockRejections += other.Faults.MemlockRejections
	s.Faults.MemlockRetries += other.Faults.MemlockRetries
	s.Faults.MemlockEvictions += other.Faults.MemlockEvictions
	s.Faults.WRErrors += other.Faults.WRErrors
	s.Faults.WRRetries += other.Faults.WRRetries
	s.Faults.ATTEvictions += other.Faults.ATTEvictions
	if s.Policy.Kind == "" {
		s.Policy.Kind = other.Policy.Kind
	}
	s.Policy.PlaceHuge += other.Policy.PlaceHuge
	s.Policy.PlaceSmall += other.Policy.PlaceSmall
	s.Policy.CacheLazy += other.Policy.CacheLazy
	s.Policy.CacheEager += other.Policy.CacheEager
	s.Policy.SGEGather += other.Policy.SGEGather
	s.Policy.SGEPack += other.Policy.SGEPack
	s.Policy.Windows += other.Policy.Windows
	s.Policy.DemoteDecisions += other.Policy.DemoteDecisions
	s.Policy.DemotedPages += other.Policy.DemotedPages
	s.Policy.DemotedBytes += other.Policy.DemotedBytes
	s.Policy.DemoteTicks += other.Policy.DemoteTicks
	s.Policy.TierMigrates += other.Policy.TierMigrates
	s.Policy.TierRecomputes += other.Policy.TierRecomputes
	s.Memtier.Fast.add(other.Memtier.Fast)
	s.Memtier.Slow.add(other.Memtier.Slow)
	s.Memtier.Promotions += other.Memtier.Promotions
	s.Memtier.Demotions += other.Memtier.Demotions
	s.Memtier.MigratedBytes += other.Memtier.MigratedBytes
	s.Memtier.MigrateTicks += other.Memtier.MigrateTicks
	s.Coll.Alltoallvs += other.Coll.Alltoallvs
	s.Coll.PairwiseSteps += other.Coll.PairwiseSteps
	s.Coll.BytesSent += other.Coll.BytesSent
	s.Coll.BytesRecv += other.Coll.BytesRecv
	s.Coll.LocalCopyBytes += other.Coll.LocalCopyBytes
}

// add accumulates one tier's counters across nodes: counters and live
// gauges sum (cluster-wide totals, cluster-wide capacity), the peak
// takes the max — per-node highs need not coexist in time.
func (t *TierStat) add(other TierStat) {
	if t.Name == "" {
		t.Name = other.Name
	}
	t.CapacityBytes += other.CapacityBytes
	t.UsedBytes += other.UsedBytes
	t.PeakBytes = max(t.PeakBytes, other.PeakBytes)
	t.Assigns += other.Assigns
	t.Spills += other.Spills
	t.TouchTicks += other.TouchTicks
}

// Sum totals a set of per-node snapshots (empty input gives zero Stats).
func Sum(all []Stats) Stats {
	var out Stats
	for i, s := range all {
		if i == 0 {
			out.Machine = s.Machine
			out.Allocator = s.Allocator
		}
		out.Add(s)
	}
	return out
}
