// Package node owns one simulated host: the machine description, its
// physical memory, a process address space with DTLB, the verbs context
// over the HCA, the allocation library, and the pin-down registration
// cache. Every layer of the stack that previously hand-rolled this wiring
// (the MPI world, the IMB and work-request benchmarks, the allocator
// comparisons, the cmd/ tools) builds its hosts here, so the paper's
// per-node cost structure — registration, ATT misses, TLB behaviour,
// allocator ticks (DESIGN.md §3) — has a single owner and a single stats
// surface (Stats).
package node

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/memtier"
	"repro/internal/phys"
	"repro/internal/policy"
	"repro/internal/regcache"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/verbs"
	"repro/internal/vm"
)

// AllocatorKind selects the node's allocation library — the variable of
// the whole experiment.
type AllocatorKind string

// Allocator kinds.
const (
	AllocLibc     AllocatorKind = "libc"
	AllocHuge     AllocatorKind = "huge"
	AllocMorecore AllocatorKind = "morecore"
	AllocPageSep  AllocatorKind = "pagesep"
)

// Scramble depths. A long-running node's frame pool is physically
// scattered; DefaultScramble reproduces that. NoScramble keeps frames in
// allocation order (unit-test setups that predate the node layer).
const (
	DefaultScramble = 4096
	NoScramble      = -1
)

// Config describes one simulated host.
type Config struct {
	Machine *machine.Machine
	// Allocator is the allocation library preloaded into the node
	// (empty means libc).
	Allocator AllocatorKind
	// LazyDereg enables the registration cache (Figure 5's two regimes).
	LazyDereg bool
	// HugeATT enables the OpenIB driver patch (2 MiB translations).
	HugeATT bool
	// ScrambleDepth warms the frame pool with this many scrambled
	// frames; 0 takes DefaultScramble, NoScramble disables warming.
	ScrambleDepth int
	// HugeConfig overrides the hugepage library's design parameters for
	// AllocHuge (nil takes alloc.DefaultHugeConfig); the §3 ablations.
	HugeConfig *alloc.HugeConfig
	// Faults enables deterministic fault injection on this host (nil =
	// no faults): hugepage-pool exhaustion/shrink, an RLIMIT_MEMLOCK
	// registration ceiling, transient completion errors, forced ATT
	// flushes. See internal/faults.
	Faults *faults.Spec
	// FaultSalt decorrelates the fault schedules of hosts sharing one
	// Spec (the MPI world salts with the rank number).
	FaultSalt uint64
	// Trace, when set, records this host's activity into the collector
	// under the timeline named TraceName (nil = no tracing; every trace
	// method is nil-safe and free when disabled).
	Trace *trace.Collector
	// TraceName labels the host's timeline in the trace ("rank0", …).
	// Empty defaults to "node".
	TraceName string
	// Policy selects the placement-policy engine ("static", "threshold",
	// "adaptive"). Empty builds no engine at all: the legacy fixed
	// strategies run with zero policy code on any path, which is what
	// keeps the committed BENCH baselines byte-identical by construction.
	Policy string
	// Tiers enables the tiered-memory model over the node's physical
	// memory (nil = flat DRAM, zero cost on every path: the pre-memtier
	// stack, which keeps the committed BENCH baselines byte-identical).
	Tiers *memtier.Config
}

func (c Config) withDefaults() Config {
	if c.Allocator == "" {
		c.Allocator = AllocLibc
	}
	if c.ScrambleDepth == 0 {
		c.ScrambleDepth = DefaultScramble
	}
	return c
}

// Validate rejects configurations New would refuse.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Machine == nil {
		return fmt.Errorf("node: config needs a machine")
	}
	switch c.Allocator {
	case AllocLibc, AllocHuge, AllocMorecore, AllocPageSep:
	default:
		return fmt.Errorf("node: unknown allocator %q", c.Allocator)
	}
	if c.HugeATT && !c.Machine.HCA.SupportsHugeATT {
		return fmt.Errorf("node: %s cannot hold hugepage ATT entries", c.Machine.HCA.Name)
	}
	if c.Policy != "" {
		if _, err := policy.ParseKind(c.Policy); err != nil {
			return err
		}
	}
	if err := c.Tiers.Validate(); err != nil {
		return err
	}
	return nil
}

// Node is one simulated host.
type Node struct {
	cfg Config

	// Mem is the node's physical memory (frame pools).
	Mem *phys.Memory
	// AS is the process address space over Mem.
	AS *vm.AddressSpace
	// DTLB is the core's data TLB (the memmodel charges through it).
	DTLB *tlb.DTLB
	// Verbs is the verbs context; Verbs.HW is the HCA.
	Verbs *verbs.Context
	// Alloc is the preloaded allocation library.
	Alloc alloc.Allocator
	// Cache is the pin-down registration cache over Verbs.
	Cache *regcache.Cache
	// Tiers is the tiered-memory manager (nil when Config.Tiers is nil;
	// all manager methods are nil-safe and free when disabled).
	Tiers *memtier.Manager

	// inj is the node's fault injector (nil when faults are disabled).
	inj *faults.Injector
	// pol is the placement-policy engine (nil when Config.Policy is
	// empty; all engine methods are nil-safe).
	pol *policy.Engine
	// tr is the node's timeline in the trace collector (nil when tracing
	// is disabled); cur is the shared cursor the clockless layers (vm,
	// phys) stamp instant events through.
	tr  *trace.Tracer
	cur *trace.Cursor
	// coll accumulates the collective counters the MPI layer records
	// through AddColl.
	coll CollStats
}

// AddColl accumulates one collective operation's counters — the MPI
// layer records each Alltoallv here as it completes.
func (n *Node) AddColl(d CollStats) {
	n.coll.Alltoallvs += d.Alltoallvs
	n.coll.PairwiseSteps += d.PairwiseSteps
	n.coll.BytesSent += d.BytesSent
	n.coll.BytesRecv += d.BytesRecv
	n.coll.LocalCopyBytes += d.LocalCopyBytes
}

// New builds a host from a configuration. This is the single place the
// stack is wired together: physical memory (warmed), address space, DTLB,
// verbs context with the ATT patch flag, allocation library, registration
// cache.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem := phys.NewMemory(cfg.Machine)
	if cfg.ScrambleDepth > 0 {
		// Warm the frame pool so small-page buffers are physically
		// scattered, as on a real long-running node.
		mem.Scramble(cfg.ScrambleDepth)
	}
	inj := faults.New(cfg.Faults, cfg.FaultSalt)
	if inj != nil {
		// Attach before the allocator is built so a pool cap applies to
		// every hugepage the library ever sees.
		mem.SetFaults(inj)
	}
	var tr *trace.Tracer
	var cur *trace.Cursor
	if cfg.Trace != nil {
		name := cfg.TraceName
		if name == "" {
			name = "node"
		}
		tr = cfg.Trace.Tracer(name)
		cur = tr.Cursor(trace.TrackMain)
		mem.SetTrace(cur)
	}
	as := vm.New(mem)
	if cur != nil {
		as.SetTrace(cur)
	}
	ctx := verbs.Open(cfg.Machine, as)
	ctx.HugeATT = cfg.HugeATT
	ctx.MemlockLimit = inj.MemlockLimit()
	if inj != nil {
		ctx.HW.SetFaults(inj)
	}
	a, err := newAllocator(as, cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:   cfg,
		Mem:   mem,
		AS:    as,
		DTLB:  tlb.New(&cfg.Machine.CPU),
		Verbs: ctx,
		Alloc: a,
		Cache: regcache.New(ctx, cfg.LazyDereg),
		inj:   inj,
		tr:    tr,
		cur:   cur,
	}
	if cfg.Policy != "" {
		kind, err := policy.ParseKind(cfg.Policy)
		if err != nil {
			return nil, err
		}
		eng, err := policy.New(policy.Config{
			Kind:         kind,
			Machine:      cfg.Machine,
			LazyDefault:  cfg.LazyDereg,
			AS:           as,
			DTLB:         n.DTLB,
			Mem:          mem,
			MemlockLimit: inj.MemlockLimit(),
			ATTStats: func() (int64, int64) {
				s := ctx.HW.Stats()
				return s.ATTHits, s.ATTMisses
			},
			CacheStats: func() (int64, int64) {
				s := n.Cache.Stats()
				return s.Hits, s.Misses
			},
			Trace: cur,
		})
		if err != nil {
			return nil, err
		}
		n.pol = eng
		if h, ok := a.(*alloc.Huge); ok {
			h.SetPlacer(eng)
		}
		n.Cache.SetPolicy(eng)
	}
	if cfg.Tiers != nil {
		tc := *cfg.Tiers
		if tc.MigrateBandwidthMBs <= 0 {
			tc.MigrateBandwidthMBs = cfg.Machine.Mem.CopyBandwidthMBs
		}
		mt, err := memtier.New(&tc, cur)
		if err != nil {
			return nil, err
		}
		n.Tiers = mt
	}
	return n, nil
}

// newAllocator builds one of the four allocation-library models on the
// node's address space — the one allocator-kind switch of the codebase.
func newAllocator(as *vm.AddressSpace, cfg Config) (alloc.Allocator, error) {
	ticks := cfg.Machine.Mem.SyscallTicks
	switch cfg.Allocator {
	case AllocLibc:
		return alloc.NewLibc(as, ticks), nil
	case AllocHuge:
		hc := alloc.DefaultHugeConfig()
		if cfg.HugeConfig != nil {
			hc = *cfg.HugeConfig
		}
		return alloc.NewHuge(as, ticks, hc)
	case AllocMorecore:
		return alloc.NewMorecore(as, ticks), nil
	case AllocPageSep:
		return alloc.NewPageSep(as, ticks), nil
	}
	return nil, fmt.Errorf("node: unknown allocator %q", cfg.Allocator)
}

// Faults returns the node's fault injector (nil when faults are
// disabled; all injector methods are nil-safe).
func (n *Node) Faults() *faults.Injector { return n.inj }

// Policy returns the node's placement-policy engine (nil when
// Config.Policy is empty; all engine methods are nil-safe).
func (n *Node) Policy() *policy.Engine { return n.pol }

// Machine returns the node's machine description.
func (n *Node) Machine() *machine.Machine { return n.cfg.Machine }

// Tracer returns the node's trace timeline (nil when tracing is
// disabled; all tracer methods are nil-safe).
func (n *Node) Tracer() *trace.Tracer { return n.tr }

// TraceCursor returns the cursor the node's clockless layers stamp
// instant events through (nil when tracing is disabled). Owners with a
// clock should Set it before entering the allocation or mapping layers.
func (n *Node) TraceCursor() *trace.Cursor { return n.cur }
