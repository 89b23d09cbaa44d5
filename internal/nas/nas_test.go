package nas

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/mpi"
)

// Small-scale kernel instances so unit tests stay fast; Figure 6 shape
// assertions run at default scale in fig6_test.go.
func testKernels() []Kernel {
	return []Kernel{
		&CG{N: 65536, Iters: 8},
		&EP{Batches: 3, Pairs: 4000, TableTouches: 60_000},
		&IS{KeysPerRank: 32768, Iters: 2, MaxKey: 1 << 16, BucketTouches: 80_000},
		&LU{Planes: 12, PlaneBytes: 48 << 10, Sweeps: 2, HotBytes: 1 << 20},
		&MG{Cycles: 3, FineBytes: 96 << 10, Levels: 3, GridBytes: 2 << 20},
	}
}

// lazyRun is the Section 5.2 evaluation default on the Opteron: lazy
// deregistration and the ATT driver patch on, the allocator as the
// variable.
func lazyRun(ranks int, ak mpi.AllocatorKind) mpi.Config {
	return mpi.Config{Machine: machine.Opteron(), Ranks: ranks, Allocator: ak, LazyDereg: true, HugeATT: true}
}

func TestKernelsVerifyUnderBothAllocators(t *testing.T) {
	for _, k := range testKernels() {
		for _, ak := range []mpi.AllocatorKind{mpi.AllocLibc, mpi.AllocHuge} {
			k, ak := k, ak
			t.Run(k.Name()+"/"+string(ak), func(t *testing.T) {
				res, err := RunKernel(lazyRun(4, ak), k)
				if err != nil {
					t.Fatal(err)
				}
				if res.Comm <= 0 || res.Compute <= 0 {
					t.Fatalf("missing time split: %+v", res)
				}
				if res.Makespan <= 0 {
					t.Fatal("no makespan")
				}
				huge := res.Nodes[0].Alloc.HugeBytes
				if ak == mpi.AllocHuge && huge == 0 {
					t.Fatal("hugepage run placed nothing in hugepages")
				}
				if ak == mpi.AllocLibc && huge != 0 {
					t.Fatal("libc run leaked into hugepages")
				}
			})
		}
	}
}

func TestKernelsDeterministic(t *testing.T) {
	k := &CG{N: 32768, Iters: 5}
	a, err := RunKernel(lazyRun(2, mpi.AllocHuge), k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunKernel(lazyRun(2, mpi.AllocHuge), k)
	if err != nil {
		t.Fatal(err)
	}
	if a.Comm != b.Comm || a.Compute != b.Compute || a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestCGRejectsBadDecomposition(t *testing.T) {
	k := &CG{N: 1000, Iters: 2} // not divisible by 3
	if _, err := RunKernel(lazyRun(3, mpi.AllocHuge), k); err == nil {
		t.Fatal("bad decomposition accepted")
	}
}

func TestByNameAndAll(t *testing.T) {
	names := []string{"cg", "ep", "is", "lu", "mg"}
	if len(All()) != len(names) {
		t.Fatal("kernel roster wrong")
	}
	for _, n := range names {
		if k := ByName(n); k == nil || k.Name() != n {
			t.Fatalf("ByName(%q) broken", n)
		}
	}
	if ByName("ft") != nil {
		t.Fatal("unknown kernel resolved")
	}
}

func TestEPRandIsUniformish(t *testing.T) {
	g := &epRand{seed: 271828183}
	var sum float64
	const n = 10000
	lo, hi := 0, 0
	for i := 0; i < n; i++ {
		v := g.next()
		if v <= 0 || v >= 1 {
			t.Fatalf("sample %d out of (0,1): %g", i, v)
		}
		sum += v
		if v < 0.5 {
			lo++
		} else {
			hi++
		}
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("LCG mean %g far from 0.5", mean)
	}
	if lo < n/2-n/10 || hi < n/2-n/10 {
		t.Fatalf("LCG halves unbalanced: %d/%d", lo, hi)
	}
}

func TestLUPlaneValueDistinguishesStages(t *testing.T) {
	seen := map[byte]bool{}
	for s := 0; s < 4; s++ {
		v := luPlaneValue(3, 1, s)
		if seen[v] {
			t.Fatal("stage values collide for fixed plane/sweep")
		}
		seen[v] = true
	}
}

// TestChargeAllocatesNothing: charging a memmodel pattern reads the
// machine's CPU parameters in place, so a charge allocates no object.
func TestChargeAllocatesNothing(t *testing.T) {
	w, err := mpi.NewWorld(lazyRun(1, mpi.AllocHuge))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var allocs float64
	err = w.Run(func(r *mpi.Rank) error {
		va, err := r.Malloc(1 << 20)
		if err != nil {
			return err
		}
		var p memmodel.Pattern = memmodel.SeqScan{Passes: 2}
		rg := region(r, va, 1<<20)
		allocs = testing.AllocsPerRun(20, func() { charge(r, p, rg) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("charge allocates %.1f objects per call, want 0", allocs)
	}
}

// ByName looks a kernel up ("cg", "ep", "is", "lu", "mg").
func ByName(name string) Kernel {
	for _, k := range All() {
		if k.Name() == name {
			return k
		}
	}
	return nil
}
