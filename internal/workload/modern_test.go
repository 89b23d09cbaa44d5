package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// modernConfig is the fixture the modern-workload tests share: 4 ranks
// on the Opteron under the huge-lazy strategy, the configuration the
// "modern" sweep grid exercises most.
func modernConfig(alloc mpi.AllocatorKind) mpi.Config {
	return mpi.Config{
		Machine:   machine.Opteron(),
		Ranks:     4,
		Allocator: alloc,
		LazyDereg: true,
		HugeATT:   true,
	}
}

func TestMoEDeterminism(t *testing.T) {
	p := DefaultMoEParams()
	a, err := RunMoE(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMoE(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n  %+v\n  %+v", a, b)
	}
	wantRouted := int64(4 * p.Iters * p.Tokens * p.TopK)
	if a.RoutedRows != wantRouted {
		t.Fatalf("routed rows = %d, want %d", a.RoutedRows, wantRouted)
	}
	if a.DispatchTicks == 0 || a.CombineTicks == 0 || a.ComputeTicks == 0 {
		t.Fatalf("phase breakdown has empty phases: %+v", a)
	}
}

func TestMoESeedChangesRouting(t *testing.T) {
	p := DefaultMoEParams()
	a, err := RunMoE(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 2
	b, err := RunMoE(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == b.Makespan && a.DispatchTicks == b.DispatchTicks {
		t.Fatal("seed change did not perturb the routing-driven timing")
	}
}

// TestMoERoutingReusesSource: the routing table drawn from one source,
// re-seeded per (iter, chunk, src), with each permutation drawn into a
// reused buffer, equals the routing that a source built fresh for each
// (iter, chunk, src) with the same seed draws through Intn and
// rand.Perm. Building it allocates the same number of objects whatever
// the rank count.
func TestMoERoutingReusesSource(t *testing.T) {
	p := DefaultMoEParams()
	p.Chunks = 3
	const ranks = 8
	rt := moeRouting(p, ranks)
	groupSize := ranks / p.Groups
	for iter := 0; iter < p.Iters; iter++ {
		for chunk := 0; chunk < p.Chunks; chunk++ {
			lo, hi := chunkRange(p.Tokens, p.Chunks, chunk)
			for src := 0; src < ranks; src++ {
				fresh := rand.New(rand.NewSource(int64(p.Seed)<<32 ^ int64(iter*1048576+chunk*65536+src)))
				for tok := lo; tok < hi; tok++ {
					g := fresh.Intn(p.Groups)
					perm := fresh.Perm(groupSize)
					want := make([]int, min(p.TopK, groupSize))
					for i := range want {
						want[i] = g*groupSize + perm[i]
					}
					if got := rt.of(iter, src, tok); !reflect.DeepEqual(got, want) {
						t.Fatalf("iter %d chunk %d src %d token %d: table routes %v, fresh source %v",
							iter, chunk, src, tok, got, want)
					}
				}
			}
		}
	}
	var allocs []float64
	for _, n := range []int{4, 16, 64} {
		allocs = append(allocs, testing.AllocsPerRun(2, func() { moeRouting(p, n) }))
	}
	if allocs[1] != allocs[0] || allocs[2] != allocs[0] {
		t.Fatalf("routing a world allocates %v objects at 4, 16 and 64 ranks, want one constant", allocs)
	}
}

func TestKVDeterminism(t *testing.T) {
	p := DefaultKVParams()
	a, err := RunKV(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunKV(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n  %+v\n  %+v", a, b)
	}
}

// TestKVCapacitySensitivity pins the acceptance criterion that the
// migrate-vs-recompute decisions change measurably with tier capacity:
// a fast tier large enough for the whole cache never faces the
// decision, a quarter-sized one faces it every step.
func TestKVCapacitySensitivity(t *testing.T) {
	small := DefaultKVParams() // 8 MiB fast tier, 32 MiB of cache
	rs, err := RunKV(modernConfig(mpi.AllocHuge), small)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Migrations+rs.Recomputes == 0 {
		t.Fatalf("capacity-pressured run made no tier decisions: %+v", rs)
	}

	big := DefaultKVParams()
	big.FastBytes = 64 << 20 // holds all 16 x 2 MiB arenas
	rb, err := RunKV(modernConfig(mpi.AllocHuge), big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Migrations != 0 || rb.Recomputes != 0 || rb.Demotions != 0 {
		t.Fatalf("uncontended fast tier still made tier decisions: %+v", rb)
	}
	if rb.Makespan >= rs.Makespan {
		t.Fatalf("larger fast tier did not speed up decode: big=%d small=%d",
			rb.Makespan, rs.Makespan)
	}
}

// TestKVStrategySplit pins the strategy dependence of the decision
// itself: under 4 KiB pages the promotion unit is one page and
// migration wins; under hugepages the unit is 2 MiB, migration costs
// more than recomputing the row, and the policy recomputes instead.
func TestKVStrategySplit(t *testing.T) {
	p := DefaultKVParams()
	libc, err := RunKV(modernConfig(mpi.AllocLibc), p)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := RunKV(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	if libc.Migrations == 0 {
		t.Fatalf("small pages should migrate retrieved tokens: %+v", libc)
	}
	if huge.Migrations != 0 {
		t.Fatalf("2 MiB promotion units should always lose to recompute: %+v", huge)
	}
	if huge.Recomputes == 0 {
		t.Fatalf("hugepage run should recompute instead: %+v", huge)
	}
}

func TestHaloDeterminism(t *testing.T) {
	p := DefaultHaloParams()
	a, err := RunHalo(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHalo(modernConfig(mpi.AllocHuge), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n  %+v\n  %+v", a, b)
	}
	if a.HaloTicks == 0 || a.ComputeTicks == 0 || a.ReduceTicks == 0 {
		t.Fatalf("phase breakdown has empty phases: %+v", a)
	}
}

func TestHaloGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4}, 9: {3, 3}}
	for p, want := range cases {
		px, py := haloGrid(p)
		if px != want[0] || py != want[1] {
			t.Errorf("haloGrid(%d) = %dx%d, want %dx%d", p, px, py, want[0], want[1])
		}
	}
}

func TestChunkRange(t *testing.T) {
	// 10 tokens in 3 chunks: 4+3+3, contiguous, covering.
	lo0, hi0 := chunkRange(10, 3, 0)
	lo1, hi1 := chunkRange(10, 3, 1)
	lo2, hi2 := chunkRange(10, 3, 2)
	if lo0 != 0 || hi0 != 4 || lo1 != 4 || hi1 != 7 || lo2 != 7 || hi2 != 10 {
		t.Fatalf("chunkRange split = [%d,%d) [%d,%d) [%d,%d)", lo0, hi0, lo1, hi1, lo2, hi2)
	}
}
