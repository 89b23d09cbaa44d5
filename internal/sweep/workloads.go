package sweep

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/faults"
	"repro/internal/imb"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/node"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/wrbench"
)

// Metrics is one run's measurement set; keys are metric names, values
// the measurements (virtual ticks unless the name says otherwise).
type Metrics = map[string]float64

// VirtTicks is the metric every workload reports: the total virtual
// time of the run. The engine uses it to pick the slowest cell for
// optional trace capture, deterministically.
const VirtTicks = "virt_ticks"

// RunContext is everything one (cell, seed) run may consume. Runs share
// no mutable state: every workload builds fresh worlds/nodes from it.
type RunContext struct {
	Machine  *machine.Machine
	Strategy Strategy
	// Spec is the per-replicate fault spec (the grid spec with its seed
	// already mixed with the replicate seed); nil = clean run.
	Spec *faults.Spec
	// Seed is the replicate seed, for workloads with their own seed
	// input (the allocator replays).
	Seed uint64
	// Ranks is the grid's NAS rank count.
	Ranks int
	// Trace, when non-nil, records the run (only set on the dedicated
	// slowest-cell re-run; grid runs never trace).
	Trace *trace.Collector
	// TracePrefix namespaces the run's timelines within Trace.
	TracePrefix string
}

// MPIConfig assembles the mpi job configuration the context implies:
// the context's strategy applied over its machine, rank count, fault
// spec and trace.
func (c *RunContext) MPIConfig(ranks int) mpi.Config {
	return c.Strategy.Apply(mpi.Config{
		Machine:     c.Machine,
		Ranks:       ranks,
		Faults:      c.Spec,
		Trace:       c.Trace,
		TracePrefix: c.TracePrefix,
	})
}

// Workload is one registered experiment the sweep engine can run
// in-process — the same library entry points cmd/repro's tables call.
type Workload struct {
	// Name is the grid-facing identifier ("imb/sendrecv", "nas/cg", ...).
	Name string
	// Primary names the headline metric regression gating compares.
	Primary string
	// HigherIsBetter gives the primary metric's direction (bandwidth
	// up, ticks down).
	HigherIsBetter bool
	// Strategied marks workloads that consume a placement strategy;
	// strategy-agnostic microbenchmarks collapse to one cell per
	// (machine, faults).
	Strategied bool
	// Run executes one replicate and returns its metrics. It must be
	// deterministic in the context and must not retain shared state.
	Run func(RunContext) (Metrics, error)
}

var (
	registryMu sync.Mutex
	registry   map[string]*Workload
)

// Register adds a workload (test harnesses and future tools); it
// rejects duplicates and workloads missing a name, primary, or runner.
func Register(w Workload) error {
	if w.Name == "" || w.Primary == "" || w.Run == nil {
		return fmt.Errorf("sweep: workload needs a name, a primary metric and a runner")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	ensureBuiltins()
	if _, dup := registry[w.Name]; dup {
		return fmt.Errorf("sweep: workload %q already registered", w.Name)
	}
	registry[w.Name] = &w
	return nil
}

// WorkloadByName resolves a workload (nil if unknown).
func WorkloadByName(name string) *Workload {
	registryMu.Lock()
	defer registryMu.Unlock()
	ensureBuiltins()
	return registry[name]
}

// Workloads lists every registered workload in name order.
func Workloads() []*Workload {
	registryMu.Lock()
	defer registryMu.Unlock()
	ensureBuiltins()
	out := make([]*Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ensureBuiltins populates the registry once; callers hold registryMu.
func ensureBuiltins() {
	if registry != nil {
		return
	}
	registry = make(map[string]*Workload)
	for _, w := range builtins() {
		w := w
		registry[w.Name] = &w
	}
}

// sendrecvSizes is the sweep's IMB SendRecv ladder: both Figure 5
// regimes (cache-resident and re-registering) without the slow tail.
var sendrecvSizes = []int{64 << 10, 1 << 20, 4 << 20}

// builtins returns the registered experiments.
func builtins() []Workload {
	wls := []Workload{
		{
			// repro E3: IMB SendRecv bandwidth.
			Name:           "imb/sendrecv",
			Primary:        "bw_mbs_4m",
			HigherIsBetter: true,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				rs, _, err := imb.SendRecv(c.MPIConfig(2), sendrecvSizes)
				if err != nil {
					return nil, err
				}
				m := Metrics{}
				var virt float64
				for i, size := range sendrecvSizes {
					m[fmt.Sprintf("bw_mbs_%s", sizeSlug(size))] = rs[i].BandwidthMBs
					virt += float64(rs[i].TicksPerIter) * float64(rs[i].Iters)
				}
				m["reg_ticks_4m"] = float64(rs[len(rs)-1].RegTicks)
				m[VirtTicks] = virt
				return m, nil
			},
		},
		{
			// IMB PingPong: small-message latency.
			Name:           "imb/pingpong",
			Primary:        "lat_ticks_64k",
			HigherIsBetter: false,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				sizes := []int{1 << 10, 64 << 10}
				rs, err := imb.PingPong(c.MPIConfig(2), sizes)
				if err != nil {
					return nil, err
				}
				m := Metrics{}
				var virt float64
				for i, size := range sizes {
					m[fmt.Sprintf("lat_ticks_%s", sizeSlug(size))] = float64(rs[i].LatencyTicks)
					virt += float64(rs[i].LatencyTicks) * float64(rs[i].Iters)
				}
				m[VirtTicks] = virt
				return m, nil
			},
		},
		{
			// repro E7: the Abinit-style allocator replay.
			// The replicate seed feeds the trace generator, so replicates
			// vary even on clean runs.
			Name:           "alloc/abinit",
			Primary:        "alloc_ticks",
			HigherIsBetter: false,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				p := workload.DefaultAbinitParams()
				p.Seed = int64(c.Seed)
				ops, slots := workload.AbinitTrace(p)
				n, err := node.New(node.Config{
					Machine:   c.Machine,
					Allocator: node.AllocatorKind(c.Strategy.Allocator),
					Faults:    c.Spec,
					Trace:     c.Trace,
					TraceName: c.TracePrefix + "replay",
					Policy:    c.Strategy.Policy,
				})
				if err != nil {
					return nil, err
				}
				res, err := alloc.Replay(n.Alloc, ops, slots)
				if err != nil {
					return nil, err
				}
				return Metrics{
					"alloc_ticks":     float64(res.AllocTime),
					"syscalls":        float64(res.Stats.Syscalls),
					"peak_live_bytes": float64(res.Stats.PeakLive),
					VirtTicks:         float64(res.AllocTime),
				}, nil
			},
		},
		{
			// repro E1: Figure 3 work-request sweep.
			Name:           "wr/sge",
			Primary:        "total_ticks",
			HigherIsBetter: false,
			Strategied:     false,
			Run: func(c RunContext) (Metrics, error) {
				rs, err := wrbench.SGESweep(node.Config{Machine: c.Machine, Faults: c.Spec, Trace: c.Trace},
					[]int{1, 2, 4, 8}, []int{64, 512, 4096})
				if err != nil {
					return nil, err
				}
				return wrMetrics(rs), nil
			},
		},
		{
			// repro E2: Figure 4 offset sweep.
			Name:           "wr/offset",
			Primary:        "total_ticks",
			HigherIsBetter: false,
			Strategied:     false,
			Run: func(c RunContext) (Metrics, error) {
				rs, err := wrbench.OffsetSweep(node.Config{Machine: c.Machine, Faults: c.Spec, Trace: c.Trace},
					[]int{0, 16, 32, 64, 96, 128}, []int{8, 64})
				if err != nil {
					return nil, err
				}
				return wrMetrics(rs), nil
			},
		},
		{
			// The scheduler throughput gate behind BENCH_scale.json: the
			// IMB SendRecv chain at the grid's rank count (the scale grid
			// sets 1024), one eager and one rendezvous size. Reports the
			// usual deterministic tick metrics plus ticks_per_wallsec —
			// simulated progress per wall second, the only host-dependent
			// metric family in the registry (see IsWallMetric).
			Name:           "scale/sendrecv",
			Primary:        "ticks_per_wallsec",
			HigherIsBetter: true,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				ranks := c.Ranks
				if ranks < 2 {
					ranks = 2
				}
				sizes := []int{4 << 10, 64 << 10}
				start := time.Now() //reprolint:ignore determinism: wall throughput is this workload's deliverable; the tick metrics stay deterministic
				rs, _, err := imb.SendRecv(c.MPIConfig(ranks), sizes)
				if err != nil {
					return nil, err
				}
				wall := time.Since(start) //reprolint:ignore determinism: see above
				m := Metrics{}
				var virt float64
				for i, size := range sizes {
					m[fmt.Sprintf("ticks_iter_%s", sizeSlug(size))] = float64(rs[i].TicksPerIter)
					virt += float64(rs[i].TicksPerIter) * float64(rs[i].Iters)
				}
				m[VirtTicks] = virt
				m["ticks_per_wallsec"] = wallRate(virt, wall)
				return m, nil
			},
		},
		{
			// The application half of the scale gate: NAS CG scaled down
			// to 32 unknowns per rank (the verification bound is rank- and
			// size-independent), iterating the full ring allgather at the
			// grid's rank count — O(ranks²) messages per iteration, the
			// communication pattern that made the old goroutine-per-rank
			// engine infeasible at 1024.
			Name:           "scale/cg",
			Primary:        "ticks_per_wallsec",
			HigherIsBetter: true,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				ranks := c.Ranks
				if ranks < 2 {
					ranks = 2
				}
				k := &nas.CG{N: 32 * ranks, Iters: 2}
				start := time.Now() //reprolint:ignore determinism: wall throughput is this workload's deliverable; the tick metrics stay deterministic
				res, err := nas.RunKernel(c.MPIConfig(ranks), k)
				if err != nil {
					return nil, err
				}
				wall := time.Since(start) //reprolint:ignore determinism: see above
				return Metrics{
					"comm_ticks":        float64(res.Comm),
					"total_ticks":       float64(res.Total),
					"makespan_ticks":    float64(res.Makespan),
					VirtTicks:           float64(res.Makespan),
					"ticks_per_wallsec": wallRate(float64(res.Makespan), wall),
				}, nil
			},
		},
		{
			// The modern pack's MoE dispatch/combine: group-limited
			// routing, scattered-row dispatch through AlltoallvPieces
			// (SGE or pack per policy), chunked compute/comm overlap.
			Name:           "moe/dispatch",
			Primary:        "makespan_ticks",
			HigherIsBetter: false,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				p := workload.DefaultMoEParams()
				p.Seed = c.Seed
				res, err := workload.RunMoE(c.MPIConfig(modernRanks(c)), p)
				if err != nil {
					return nil, err
				}
				return Metrics{
					"dispatch_ticks": float64(res.DispatchTicks),
					"combine_ticks":  float64(res.CombineTicks),
					"compute_ticks":  float64(res.ComputeTicks),
					"routed_rows":    float64(res.RoutedRows),
					"makespan_ticks": float64(res.Makespan),
					VirtTicks:        float64(res.Makespan),
				}, nil
			},
		},
		{
			// The modern pack's KV-cache decode: per-layer arenas on the
			// two-tier memory model, best-ratio placement, and the
			// migrate-vs-recompute decision on every retrieved token.
			Name:           "kv/decode",
			Primary:        "makespan_ticks",
			HigherIsBetter: false,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				p := workload.DefaultKVParams()
				p.Seed = c.Seed
				res, err := workload.RunKV(c.MPIConfig(modernRanks(c)), p)
				if err != nil {
					return nil, err
				}
				return Metrics{
					"prefill_ticks":  float64(res.PrefillTicks),
					"decode_ticks":   float64(res.DecodeTicks),
					"migrations":     float64(res.Migrations),
					"recomputes":     float64(res.Recomputes),
					"demotions":      float64(res.Demotions),
					"makespan_ticks": float64(res.Makespan),
					VirtTicks:        float64(res.Makespan),
				}, nil
			},
		},
		{
			// The modern pack's 2-D halo exchange + allreduce: contiguous
			// row strips, strided column pieces (the Section 4 scenario),
			// stencil sweeps and a rendezvous-sized residual reduction.
			Name:           "halo/exchange2d",
			Primary:        "makespan_ticks",
			HigherIsBetter: false,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				p := workload.DefaultHaloParams()
				p.Seed = c.Seed
				res, err := workload.RunHalo(c.MPIConfig(modernRanks(c)), p)
				if err != nil {
					return nil, err
				}
				return Metrics{
					"halo_ticks":     float64(res.HaloTicks),
					"compute_ticks":  float64(res.ComputeTicks),
					"reduce_ticks":   float64(res.ReduceTicks),
					"makespan_ticks": float64(res.Makespan),
					VirtTicks:        float64(res.Makespan),
				}, nil
			},
		},
	}
	// repro E5: one workload per NAS kernel, so the grid can
	// subset and the comparisons stay per-kernel (the paper's Figure 6
	// bars).
	for _, k := range nas.All() {
		k := k
		wls = append(wls, Workload{
			Name:           "nas/" + k.Name(),
			Primary:        "total_ticks",
			HigherIsBetter: false,
			Strategied:     true,
			Run: func(c RunContext) (Metrics, error) {
				res, err := nas.RunKernel(c.MPIConfig(c.Ranks), k)
				if err != nil {
					return nil, err
				}
				tot := node.Sum(res.Nodes)
				return Metrics{
					"comm_ticks":     float64(res.Comm),
					"compute_ticks":  float64(res.Compute),
					"total_ticks":    float64(res.Total),
					"makespan_ticks": float64(res.Makespan),
					"tlb_misses":     float64(tot.TLB.Misses()),
					"reg_ticks":      float64(tot.Reg.RegTicks),
					VirtTicks:        float64(res.Makespan),
				}, nil
			},
		})
	}
	return wls
}

// modernRanks is the modern-pack default rank count when the grid does
// not set one (the workloads need at least 2 ranks; MoE's two gating
// groups need an even count).
func modernRanks(c RunContext) int {
	if c.Ranks >= 2 {
		return c.Ranks
	}
	return 4
}

// wrMetrics folds a work-request sweep into post/poll/total sums.
func wrMetrics(rs []wrbench.Result) Metrics {
	var post, poll float64
	for _, r := range rs {
		post += float64(r.PostTicks)
		poll += float64(r.PollTicks)
	}
	return Metrics{
		"post_ticks":  post,
		"poll_ticks":  poll,
		"total_ticks": post + poll,
		VirtTicks:     post + poll,
	}
}

// wallRate converts virtual progress into simulated-ticks-per-wall-
// second, the scheduler-throughput number the scale grid gates. Wall
// time is host-dependent by nature; callers strip the resulting metric
// (Bench.StripWall) before any byte-identity comparison.
func wallRate(virt float64, wall time.Duration) float64 {
	if wall <= 0 {
		wall = time.Nanosecond
	}
	return virt / wall.Seconds()
}

// sizeSlug renders a byte count as the short form used in metric names.
func sizeSlug(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
