package sweep

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/cas"
)

// cacheGrid is a small strategied grid cheap enough to run repeatedly:
// two strategies × two seeds of the Abinit allocator replay.
func cacheGrid() Grid {
	return Grid{
		Name:       "cachetest",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit"},
		Strategies: []string{"small-lazy", "huge-lazy"},
		Faults:     []string{"seed=3,attevict=800"},
		Seeds:      []uint64{1, 2},
	}
}

func renderBench(t *testing.T, b *Bench) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheWarmRunExecutesNothing is the tentpole contract: a cold run
// populates the store, a warm re-run of the same grid executes zero
// replicates and renders byte-identical BENCH output.
func TestCacheWarmRunExecutesNothing(t *testing.T) {
	store, err := cas.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm ExecStats
	b1, errs, err := Execute(cacheGrid(), Options{Workers: 2, Cache: store, Fingerprint: "fp1", Stats: &cold})
	if err != nil || len(errs) != 0 {
		t.Fatalf("cold run: %v %v", errs, err)
	}
	if cold.RunsExecuted != 4 || cold.RunsCached != 0 {
		t.Fatalf("cold stats = %+v", cold)
	}
	b2, errs, err := Execute(cacheGrid(), Options{Workers: 2, Cache: store, Fingerprint: "fp1", Stats: &warm})
	if err != nil || len(errs) != 0 {
		t.Fatalf("warm run: %v %v", errs, err)
	}
	if warm.RunsExecuted != 0 || warm.RunsCached != 4 {
		t.Fatalf("warm stats = %+v", warm)
	}
	if !bytes.Equal(renderBench(t, b1), renderBench(t, b2)) {
		t.Fatal("cached run renders different BENCH bytes")
	}
	if err := Validate(b2); err != nil {
		t.Fatalf("cached document invalid: %v", err)
	}
}

// TestCacheInvalidationIsSelective pins the incremental property:
// changing one strategy in the grid re-executes only that strategy's
// cells, and a fingerprint (code) change re-executes everything.
func TestCacheInvalidationIsSelective(t *testing.T) {
	store, err := cas.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecStats
	if _, errs, err := Execute(cacheGrid(), Options{Cache: store, Fingerprint: "fp1", Stats: &st}); err != nil || len(errs) != 0 {
		t.Fatalf("cold run: %v %v", errs, err)
	}

	// Swap huge-lazy for huge: the two small-lazy replicates stay
	// cached, the two huge replicates execute.
	g := cacheGrid()
	g.Strategies = []string{"small-lazy", "huge"}
	if _, errs, err := Execute(g, Options{Cache: store, Fingerprint: "fp1", Stats: &st}); err != nil || len(errs) != 0 {
		t.Fatalf("edited run: %v %v", errs, err)
	}
	if st.RunsCached != 2 || st.RunsExecuted != 2 {
		t.Fatalf("strategy edit: stats = %+v, want 2 cached + 2 executed", st)
	}

	// A new seed extends the replicate list: old seeds hit, new ones run.
	g = cacheGrid()
	g.Seeds = []uint64{1, 2, 3}
	if _, errs, err := Execute(g, Options{Cache: store, Fingerprint: "fp1", Stats: &st}); err != nil || len(errs) != 0 {
		t.Fatalf("seed run: %v %v", errs, err)
	}
	if st.RunsCached != 4 || st.RunsExecuted != 2 {
		t.Fatalf("seed extension: stats = %+v, want 4 cached + 2 executed", st)
	}

	// A different fingerprint (a code edit) invalidates everything.
	if _, errs, err := Execute(cacheGrid(), Options{Cache: store, Fingerprint: "fp2", Stats: &st}); err != nil || len(errs) != 0 {
		t.Fatalf("fingerprint run: %v %v", errs, err)
	}
	if st.RunsCached != 0 || st.RunsExecuted != 4 {
		t.Fatalf("fingerprint change: stats = %+v, want 0 cached + 4 executed", st)
	}
}

// TestCacheStripsWallMetrics: stored payloads carry only deterministic
// metrics, so a warm run of a wall-reporting workload yields exactly
// the stripped view a fresh run would after StripWall.
func TestCacheStripsWallMetrics(t *testing.T) {
	g := Grid{
		Name:       "walltest",
		Machines:   []string{"opteron"},
		Workloads:  []string{"scale/sendrecv"},
		Strategies: []string{"huge-lazy"},
		Seeds:      []uint64{1},
		Ranks:      2,
	}
	store, err := cas.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, errs, err := Execute(g, Options{Cache: store, Fingerprint: "fp1"})
	if err != nil || len(errs) != 0 {
		t.Fatalf("cold run: %v %v", errs, err)
	}
	if _, ok := b1.Cells[0].Stats["ticks_per_wallsec"]; !ok {
		t.Fatal("fresh run missing its wall metric")
	}
	var st ExecStats
	b2, errs, err := Execute(g, Options{Cache: store, Fingerprint: "fp1", Stats: &st})
	if err != nil || len(errs) != 0 || st.RunsCached != 1 {
		t.Fatalf("warm run: %v %v stats=%+v", errs, err, st)
	}
	if _, ok := b2.Cells[0].Stats["ticks_per_wallsec"]; ok {
		t.Fatal("cached run resurrected a wall metric")
	}
	b1.StripWall()
	if !bytes.Equal(renderBench(t, b1), renderBench(t, b2)) {
		t.Fatal("cached run differs from the fresh run's stripped view")
	}
}

// TestGridCounts pins the -list cost estimate: strategy-agnostic
// workloads collapse to one cell per machine × faults.
func TestGridCounts(t *testing.T) {
	g := Grid{
		Name:       "counts",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit", "wr/sge"},
		Strategies: []string{"small-lazy", "huge-lazy"},
		Seeds:      []uint64{1, 2, 3},
	}
	cells, runs, err := g.Counts()
	if err != nil {
		t.Fatal(err)
	}
	// alloc/abinit is strategied (2 cells), wr/sge is agnostic (1 cell).
	if cells != 3 || runs != 9 {
		t.Fatalf("Counts = %d cells, %d runs; want 3, 9", cells, runs)
	}
	if _, _, err := (Grid{Name: "bad"}).Counts(); err == nil {
		t.Fatal("invalid grid counted")
	}
}

// TestCommittedBaselinesValidate guards every committed BENCH_*.json:
// each must strictly decode and pass Validate, the same path the
// regression gate uses — a hand-edited or stale baseline fails here.
func TestCommittedBaselinesValidate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH baselines found (err=%v)", err)
	}
	want := map[string]bool{"BENCH_seed.json": false, "BENCH_policy.json": false, "BENCH_scale.json": false}
	for _, p := range paths {
		b, err := LoadFile(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if _, tracked := want[filepath.Base(p)]; tracked {
			want[filepath.Base(p)] = true
		}
		if b.Name == "" {
			t.Errorf("%s: empty grid name", p)
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("expected committed baseline %s missing", name)
		}
	}
}
