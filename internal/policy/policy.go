// Package policy is the pluggable data-placement decision layer the
// paper's fixed strategies lack. One Engine per node is consulted at
// three points: hugepage-vs-base-page placement when the allocation
// library maps an above-threshold block (alloc.Placer), eager-vs-lazy
// deregistration when the pin-down cache registers a buffer
// (regcache.Decider), and SGE-aggregation-vs-copy when MPI sends a
// non-contiguous buffer (mpi.SendPieces).
//
// Three policies ship:
//
//   - static: every hook returns the configured strategy's answer, at
//     zero virtual cost — bit-for-bit the legacy fixed strategies, with
//     decision counters.
//   - threshold: rule-based on live telemetry — hugepage-pool headroom
//     and DTLB miss ratios gate placement, memlock headroom and regcache
//     hit rate gate lazy dereg, ATT pressure gates SGE aggregation.
//   - adaptive: threshold's up-front placement rules plus per-site
//     scoring with virtual-time-windowed feedback.
//     Every hugepage-placed site keeps a shadow DTLB that replays the
//     site's observed access patterns under the counterfactual base-page
//     placement; when a window shows the hugepage placement paying more
//     page walks than base pages would — NAS IS's scattered bucket
//     arena — the site is demoted in place (vm.Demote) and the walk
//     savings accrue for the rest of the run.
//
// Determinism: decisions are pure functions of the node's own virtual-
// time telemetry. No wall clock, no global rand, no map iteration
// reaches a decision; same seed, same decisions, byte-identical traces.
package policy

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Kind names a policy.
type Kind string

// The built-in policies.
const (
	Static    Kind = "static"
	Threshold Kind = "threshold"
	Adaptive  Kind = "adaptive"
)

// ParseKind validates a policy name.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case Static, Threshold, Adaptive:
		return Kind(s), nil
	}
	return "", fmt.Errorf("policy: unknown kind %q (have static, threshold, adaptive)", s)
}

// Stats counts the engine's decisions. All fields are monotone counters.
type Stats struct {
	Kind            Kind
	PlaceHuge       int64 // above-threshold blocks placed in hugepages
	PlaceSmall      int64 // above-threshold blocks routed to base pages
	CacheLazy       int64 // registrations left cached (lazy dereg)
	CacheEager      int64 // registrations deregistered eagerly
	SGEGather       int64 // non-contiguous sends via HCA gather list
	SGEPack         int64 // non-contiguous sends via pack-and-copy
	Windows         int64 // adaptive feedback windows evaluated
	DemoteDecisions int64 // sites the adaptive policy decided to demote
	DemotedPages    int64 // hugepages actually split
	DemotedBytes    int64
	DemoteTicks     simtime.Ticks // virtual time charged for the splits
	TierMigrates    int64         // migrate-vs-recompute decisions that migrated
	TierRecomputes  int64         // ... that recomputed in place instead
}

// Config wires an Engine to one node's live telemetry. All pointers
// reference the node's own layers; the engine never mutates them except
// through vm.Demote and the targeted TLB shootdown that follows it.
type Config struct {
	Kind    Kind
	Machine *machine.Machine
	// LazyDefault is the strategy's configured deregistration mode — the
	// answer the static policy returns from DecideLazy.
	LazyDefault bool
	AS          *vm.AddressSpace
	DTLB        *tlb.DTLB
	Mem         *phys.Memory
	// MemlockLimit is the RLIMIT_MEMLOCK ceiling (0 = unlimited).
	MemlockLimit int64
	// ATTStats and CacheStats sample the HCA address-translation table
	// and the registration cache (hits, misses). Either may be nil.
	ATTStats   func() (hits, misses int64)
	CacheStats func() (hits, misses int64)
	// Trace, when set, records demotion decisions as policy-layer events
	// at the cursor's current position.
	Trace *trace.Cursor
}

// Engine is one node's placement policy. It implements alloc.Placer and
// regcache.Decider structurally. Not safe for concurrent use: the
// scheduler runs one task per node at a time, like every other node
// layer.
type Engine struct {
	cfg   Config
	stats Stats

	// Adaptive state: hugepage-placed sites sorted by base VA, and the
	// end of the current feedback window.
	sites     []*site
	windowEnd simtime.Ticks
}

// Adaptive tuning. Times are virtual ticks.
const (
	// windowTicks is the feedback window length. Long enough that a NAS
	// iteration's pattern mix accumulates a meaningful sample, short
	// enough that a mid-run demotion still pays for itself many times.
	windowTicks = simtime.Ticks(1 << 20)
	// minSamples is the fewest observed accesses a site needs in a
	// window before demotion is considered.
	minSamples = 1024
	// demoteSlackMisses absorbs sampling noise: the hugepage placement
	// must cost at least this many extra walks beyond the 1.5x ratio
	// before a demotion fires.
	demoteSlackMisses = 256
)

// New builds an Engine. Kind must parse and Machine/AS/DTLB/Mem must be
// set (the node wires them).
func New(cfg Config) (*Engine, error) {
	if _, err := ParseKind(string(cfg.Kind)); err != nil {
		return nil, err
	}
	if cfg.Machine == nil || cfg.AS == nil || cfg.DTLB == nil || cfg.Mem == nil {
		return nil, fmt.Errorf("policy: config must wire Machine, AS, DTLB and Mem")
	}
	return &Engine{cfg: cfg, stats: Stats{Kind: cfg.Kind}, windowEnd: windowTicks}, nil
}

// Stats snapshots the decision counters. Nil-safe.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return e.stats
}

// PlaceHuge implements alloc.Placer: should this above-threshold request
// go to hugepages?
func (e *Engine) PlaceHuge(size uint64) bool {
	if e == nil || e.cfg.Kind == Static {
		// static keeps the library's prior: place huge.
		return true
	}
	// Both telemetry policies share the up-front rules; adaptive adds
	// per-site demotion on top for the mistakes no up-front rule can
	// see.
	//
	// Pool headroom: if the hugetlbfs pool cannot cover the mapping the
	// library would request, skip the doomed attempt and the fallback
	// bookkeeping entirely. The block lands in base pages either way;
	// only the failed-map cost differs.
	pages := int((size + machine.HugePageSize - 1) / machine.HugePageSize)
	if e.cfg.Mem.HugeAvailable() < pages {
		return false
	}
	// TLB pressure: when the tiny hugepage file is already thrashing
	// while the small-page file has headroom, stop feeding it.
	lg, sm := e.cfg.DTLB.Large.Stats(), e.cfg.DTLB.Small.Stats()
	if lg.Accesses() >= minSamples && lg.MissRate() > 0.5 && sm.MissRate() < 0.05 {
		return false
	}
	return true
}

// DecideLazy implements regcache.Decider: should this registration stay
// cached?
func (e *Engine) DecideLazy(va vm.VA, length uint64, lazyDefault bool, maxPinned, pinnedBytes int64) bool {
	lazy := e.decideLazy(length, lazyDefault, maxPinned, pinnedBytes)
	if lazy {
		e.stats.CacheLazy++
	} else {
		e.stats.CacheEager++
	}
	return lazy
}

func (e *Engine) decideLazy(length uint64, lazyDefault bool, maxPinned, pinnedBytes int64) bool {
	switch e.cfg.Kind {
	case Threshold:
		// A registration the budget can never hold would only evict
		// useful entries on its way through — register it eagerly.
		if maxPinned > 0 && int64(length) > maxPinned {
			return false
		}
		if e.cfg.MemlockLimit > 0 && int64(length) > e.cfg.MemlockLimit {
			return false
		}
		// A cache that is not earning its pins (hit rate under 20% with
		// a real sample) stops caching until reuse shows up.
		if e.cfg.CacheStats != nil {
			if h, m := e.cfg.CacheStats(); h+m >= minSamples/4 && h < m/4 {
				return false
			}
		}
		return lazyDefault
	case Adaptive:
		// Keep the configured mode except for registrations that cannot
		// stay cached anyway (they exceed the pinning budget outright):
		// those pay the lazy path's eviction churn for nothing.
		if maxPinned > 0 && int64(length) > maxPinned {
			return false
		}
		if e.cfg.MemlockLimit > 0 && int64(length) > e.cfg.MemlockLimit {
			return false
		}
		return lazyDefault
	default:
		return lazyDefault
	}
}

// DecideGather chooses between posting a non-contiguous send as one HCA
// gather list (pieces SGEs spanning totalBytes) or packing it through a
// bounce buffer. estGather and estPack are the caller's cost estimates
// for the two forms.
func (e *Engine) DecideGather(pieces int, totalBytes uint64, estGather, estPack simtime.Ticks) bool {
	gather := estGather <= estPack
	if e != nil && e.cfg.Kind == Threshold && gather && e.cfg.ATTStats != nil {
		// Under ATT thrash every SGE's translation is a likely miss the
		// cost model did not price in; prefer the single-entry copy.
		if h, m := e.cfg.ATTStats(); h+m >= minSamples && float64(m)/float64(h+m) > 0.5 {
			gather = false
		}
	}
	if e != nil {
		if gather {
			e.stats.SGEGather++
		} else {
			e.stats.SGEPack++
		}
	}
	return gather
}

// DecideMigrate chooses between promoting cold tier data (paying
// migrateTicks of copy cost now, after which accesses run at fast-tier
// speed) and recomputing or re-reading it in place (paying
// recomputeTicks every time). bytes is the payload; fastFree the fast
// tier's remaining capacity. The raw estimates decide for a nil engine
// or the static kind; the threshold and adaptive kinds additionally
// refuse migrations that cannot fit the fast tier — the copy would
// be pure cost, since the pages stay slow.
func (e *Engine) DecideMigrate(bytes uint64, fastFree int64, migrateTicks, recomputeTicks simtime.Ticks) bool {
	migrate := migrateTicks <= recomputeTicks
	if e != nil && e.cfg.Kind != Static && migrate && int64(bytes) > fastFree {
		migrate = false
	}
	if e != nil {
		if migrate {
			e.stats.TierMigrates++
		} else {
			e.stats.TierRecomputes++
		}
	}
	return migrate
}
