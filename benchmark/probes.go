package main

import (
	"errors"
	"flag"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/memtier"
	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/vm"
	appwl "repro/internal/workload"
)

// Every probe runs on an Opteron host under the huge-lazy strategy, the
// configuration all four workloads share; only the world-construction
// probe takes the size of the workload's largest world.

func probeNode(lazy bool) (*node.Node, error) {
	return node.New(node.Config{
		Machine: machine.Opteron(), Allocator: node.AllocHuge, LazyDereg: lazy, HugeATT: true,
	})
}

func probeWorld(ranks int) mpi.Config {
	return mpi.Config{
		Machine: machine.Opteron(), Ranks: ranks, Allocator: mpi.AllocHuge, LazyDereg: true, HugeATT: true,
	}
}

// probe is one testing.Benchmark loop over a layer primitive. run does
// its set-up, resets the timer and calls the primitive b.N times; report
// converts the result into metrics.
type probe struct {
	name   string
	run    func(b *testing.B) error
	report func(r testing.BenchmarkResult, vals map[string]float64)
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func allocsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.MemAllocs) / float64(r.N)
}

// runProbes times every probe for benchtime (a testing -benchtime value)
// and adds their metrics to vals.
func runProbes(worldRanks int, benchtime string, seed uint64, vals map[string]float64) error {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return fmt.Errorf("probe benchtime %q: %w", benchtime, err)
	}
	for _, p := range probes(worldRanks, seed) {
		var err error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if err = p.run(b); err != nil {
				b.FailNow()
			}
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		if r.N == 0 {
			return fmt.Errorf("probe %s: no iterations", p.name)
		}
		p.report(r, vals)
	}
	return nil
}

const (
	eagerBytes  = 4 << 10
	regBytes    = 256 << 10 // one regcache entry
	regMRBytes  = 4 << 20
	dmaBytes    = 64 << 10 // gathered from dmaSGEs equal pieces
	dmaSGEs     = 4
	tlbPages    = 512
	tierPages   = 4096 // twice the KV fast tier, so touches hit both tiers
	migratePage = 16
)

func probes(worldRanks int, seed uint64) []probe {
	abinit := appwl.DefaultAbinitParams()
	abinit.Seed = int64(seed)
	ops, slots := appwl.AbinitTrace(abinit)
	return []probe{
		{
			// One Queue push/pop handoff between two tasks: two baton passes.
			name: "sched.switch",
			run: func(b *testing.B) error {
				s := sched.New()
				q := sched.NewQueue[int](s, "probe", 1)
				var ca, cb simtime.Clock
				n := b.N
				s.Spawn(0, &ca, func(t *sched.Task) error {
					for i := 0; i < n; i++ {
						if !q.Push(t, i) {
							return errors.New("push aborted")
						}
					}
					return nil
				})
				s.Spawn(1, &cb, func(t *sched.Task) error {
					for i := 0; i < n; i++ {
						if _, ok := q.Pop(t); !ok {
							return errors.New("pop aborted")
						}
					}
					return nil
				})
				b.ResetTimer()
				return s.Run()
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["sched.switch_ns"] = nsPerOp(r)
				vals["sched.switch_allocs"] = allocsPerOp(r)
			},
		},
		{
			// One eager Sendrecv exchange between two ranks.
			name: "mpi.sendrecv_eager",
			run: func(b *testing.B) error {
				w, err := mpi.NewWorld(probeWorld(2))
				if err != nil {
					return err
				}
				n := b.N
				b.ResetTimer()
				return w.Run(func(r *mpi.Rank) error {
					sva, err := r.Malloc(eagerBytes)
					if err != nil {
						return err
					}
					rva, err := r.Malloc(eagerBytes)
					if err != nil {
						return err
					}
					peer := 1 - r.ID()
					for i := 0; i < n; i++ {
						if _, err := r.Sendrecv(peer, 0, sva, eagerBytes, peer, 0, rva, eagerBytes); err != nil {
							return err
						}
					}
					return nil
				})
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["mpi.sendrecv_eager_us"] = nsPerOp(r) / 1e3
				vals["mpi.sendrecv_eager_allocs"] = allocsPerOp(r)
			},
		},
		{
			name: "node.new_world",
			run: func(b *testing.B) error {
				cfg := probeWorld(worldRanks)
				for i := 0; i < b.N; i++ {
					if _, err := mpi.NewWorld(cfg); err != nil {
						return err
					}
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["node.new_world_ms"] = nsPerOp(r) / 1e6
				vals["node.new_world_alloc_mb"] = float64(r.MemBytes) / float64(r.N) / 1e6
			},
		},
		{
			// Acquire and release of a cached registration.
			name: "regcache.hit",
			run: func(b *testing.B) error {
				return acquireLoop(b, true)
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["regcache.hit_ns"] = nsPerOp(r)
			},
		},
		{
			// Acquire and release through an eager cache: register and
			// deregister every time.
			name: "regcache.miss",
			run: func(b *testing.B) error {
				return acquireLoop(b, false)
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["regcache.miss_us"] = nsPerOp(r) / 1e3
			},
		},
		{
			name: "verbs.regmr_small",
			run: func(b *testing.B) error {
				return regLoop(b, func(as *vm.AddressSpace) (vm.VA, error) { return as.MapSmall(regMRBytes) })
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["verbs.regmr_small_us"] = nsPerOp(r) / 1e3
			},
		},
		{
			name: "verbs.regmr_huge",
			run: func(b *testing.B) error {
				return regLoop(b, func(as *vm.AddressSpace) (vm.VA, error) { return as.MapHuge(regMRBytes) })
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["verbs.regmr_huge_us"] = nsPerOp(r) / 1e3
			},
		},
		{
			name: "hca.gather",
			run: func(b *testing.B) error {
				h, sges, err := dmaRig()
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := h.Gather(sges); err != nil {
						return err
					}
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["hca.gather_ns_per_kib"] = nsPerOp(r) / (dmaBytes >> 10)
				vals["hca.gather_allocs"] = allocsPerOp(r)
			},
		},
		{
			name: "hca.scatter",
			run: func(b *testing.B) error {
				h, sges, err := dmaRig()
				if err != nil {
					return err
				}
				data := make([]byte, dmaBytes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := h.Scatter(sges, data); err != nil {
						return err
					}
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["hca.scatter_ns_per_kib"] = nsPerOp(r) / (dmaBytes >> 10)
			},
		},
		{
			name: "vm.translate",
			run: func(b *testing.B) error {
				n, err := probeNode(true)
				if err != nil {
					return err
				}
				va, err := n.AS.MapSmall(tlbPages * machine.SmallPageSize)
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := n.AS.Translate(va + vm.VA(i%tlbPages*machine.SmallPageSize)); err != nil {
						return err
					}
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["vm.translate_ns"] = nsPerOp(r)
			},
		},
		{
			// A cycle over more small pages than the DTLB holds.
			name: "tlb.access",
			run: func(b *testing.B) error {
				n, err := probeNode(true)
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.DTLB.Access(vm.VA(i%tlbPages*machine.SmallPageSize), vm.Small)
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["tlb.access_ns"] = nsPerOp(r)
			},
		},
		{
			// NAS IS's bucket-counting charge, reported per touch.
			name: "memmodel.touch",
			run: func(b *testing.B) error {
				n, err := probeNode(true)
				if err != nil {
					return err
				}
				bytes := uint64(isTables) * machine.HugePageSize
				va, err := n.AS.MapHuge(bytes)
				if err != nil {
					return err
				}
				cpu := n.Machine().CPU
				rg := memmodel.Region{VA: va, Bytes: bytes, Class: vm.Huge}
				p := memmodel.ScatteredTables{NumTables: isTables, TableBytes: 1536, Count: isTouches}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Apply(&cpu, n.DTLB, rg)
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["memmodel.touch_ns"] = nsPerOp(r) / isTouches
			},
		},
		{
			name: "memtier.touch",
			run: func(b *testing.B) error {
				m, refs, err := tierRig(tierPages)
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Touch(refs[i%len(refs)], machine.SmallPageSize)
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["memtier.touch_ns"] = nsPerOp(r)
			},
		},
		{
			// One migration of migratePage small pages, alternating
			// slow and fast.
			name: "memtier.migrate",
			run: func(b *testing.B) error {
				m, refs, err := tierRig(migratePage)
				if err != nil {
					return err
				}
				m.Assign(refs, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if moved, _ := m.Migrate(refs, 1-i%2); moved != len(refs) {
						return fmt.Errorf("moved %d of %d pages", moved, len(refs))
					}
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["memtier.migrate_us"] = nsPerOp(r) / 1e3
			},
		},
		{
			// The Abinit allocation trace replayed on the hugepage
			// library, reported per trace operation.
			name: "alloc.replay",
			run: func(b *testing.B) error {
				n, err := probeNode(true)
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := alloc.Replay(n.Alloc, ops, slots); err != nil {
						return err
					}
				}
				return nil
			},
			report: func(r testing.BenchmarkResult, vals map[string]float64) {
				vals["alloc.replay_ns_per_op"] = nsPerOp(r) / float64(len(ops))
			},
		},
	}
}

// NAS IS's scattered bucket arena (internal/nas/is.go).
const (
	isTables  = 44
	isTouches = 3000
)

// acquireLoop acquires and releases one small-page region through the
// registration cache, lazy (every acquire after the first hits) or eager
// (every acquire registers).
func acquireLoop(b *testing.B, lazy bool) error {
	n, err := probeNode(lazy)
	if err != nil {
		return err
	}
	va, err := n.AS.MapSmall(regBytes)
	if err != nil {
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, _, err := n.Cache.Acquire(va, regBytes)
		if err != nil {
			return err
		}
		if _, err := n.Cache.Release(mr); err != nil {
			return err
		}
	}
	return nil
}

// regLoop registers and deregisters one regMRBytes buffer.
func regLoop(b *testing.B, mapBuf func(*vm.AddressSpace) (vm.VA, error)) error {
	n, err := probeNode(true)
	if err != nil {
		return err
	}
	va, err := mapBuf(n.AS)
	if err != nil {
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, _, err := n.Verbs.RegMR(va, regMRBytes)
		if err != nil {
			return err
		}
		if _, err := n.Verbs.DeregMR(mr); err != nil {
			return err
		}
	}
	return nil
}

// dmaRig registers a small-page buffer and describes it as dmaSGEs
// equal scatter/gather entries.
func dmaRig() (*hca.HCA, []hca.SGE, error) {
	n, err := probeNode(true)
	if err != nil {
		return nil, nil, err
	}
	va, err := n.AS.MapSmall(dmaBytes)
	if err != nil {
		return nil, nil, err
	}
	mr, _, err := n.Verbs.RegMR(va, dmaBytes)
	if err != nil {
		return nil, nil, err
	}
	const piece = dmaBytes / dmaSGEs
	sges := make([]hca.SGE, dmaSGEs)
	for i := range sges {
		sges[i] = hca.SGE{Addr: va + vm.VA(i*piece), Length: piece, LKey: mr.LKey}
	}
	return n.Verbs.HW, sges, nil
}

// tierRig builds the KV decode workload's two-tier stack over pages
// small-page frames.
func tierRig(pages int) (*memtier.Manager, []memtier.PageRef, error) {
	m, err := memtier.New(appwl.DefaultKVParams().Tiers(), nil)
	if err != nil {
		return nil, nil, err
	}
	refs := make([]memtier.PageRef, pages)
	for i := range refs {
		refs[i] = memtier.PageRef{Frame: phys.Frame(i), Bytes: machine.SmallPageSize}
	}
	return m, refs, nil
}
