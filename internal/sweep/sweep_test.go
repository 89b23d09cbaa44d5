package sweep

import (
	"strings"
	"testing"

	"repro/internal/mpi"
)

func TestExpandProducesCanonicalCellsAndAlignedJobs(t *testing.T) {
	g := Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit", "wr/sge"},
		Strategies: []string{"small-lazy", "huge-lazy"},
		Faults:     []string{"", "seed=3,attevict=800"},
		Seeds:      []uint64{1, 2, 3},
	}
	ex, err := expand(g)
	if err != nil {
		t.Fatal(err)
	}
	// alloc/abinit is strategied (2 strategies x 2 faults); wr/sge is
	// strategy-agnostic and collapses to one cell per (machine, faults).
	if len(ex.cells) != 4+2 {
		t.Fatalf("expanded %d cells, want 6", len(ex.cells))
	}
	if len(ex.jobs) != 6*3 {
		t.Fatalf("expanded %d jobs, want 18", len(ex.jobs))
	}
	for _, j := range ex.jobs {
		c := ex.cells[j.cell]
		if c.Seeds[j.rep] != j.seed {
			t.Fatalf("job seed %d does not match cell slot %d", j.seed, j.rep)
		}
		if c.Workload == "wr/sge" && c.Strategy != agnosticStrategy {
			t.Fatalf("strategy-agnostic cell carries strategy %q", c.Strategy)
		}
		if c.Machine != "opteron" {
			t.Fatalf("cell records machine %q, want the grid's short name", c.Machine)
		}
	}
	// Replicates of a faulted cell must observe decorrelated specs.
	var seeds []uint64
	for _, j := range ex.jobs {
		if j.spec != nil {
			seeds = append(seeds, j.spec.Seed)
		}
	}
	uniq := make(map[uint64]bool)
	for _, s := range seeds {
		uniq[s] = true
	}
	if len(uniq) != 3 {
		t.Fatalf("faulted replicates observe %d distinct mixed spec seeds, want 3", len(uniq))
	}
}

func TestExpandRejectsBadGrids(t *testing.T) {
	valid := Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit"},
		Strategies: []string{"small-lazy"},
		Seeds:      []uint64{1, 2},
	}
	cases := []struct {
		name   string
		mutate func(*Grid)
		want   string
	}{
		{"no name", func(g *Grid) { g.Name = "" }, "needs a name"},
		{"no machines", func(g *Grid) { g.Machines = nil }, "needs machines"},
		{"no seeds", func(g *Grid) { g.Seeds = nil }, "needs machines, workloads and seeds"},
		{"no strategies", func(g *Grid) { g.Strategies = nil }, "needs strategies"},
		{"repeated seed", func(g *Grid) { g.Seeds = []uint64{2, 2} }, "strictly increasing"},
		{"decreasing seeds", func(g *Grid) { g.Seeds = []uint64{3, 1} }, "strictly increasing"},
		{"unknown machine", func(g *Grid) { g.Machines = []string{"cray"} }, "unknown machine"},
		{"unknown workload", func(g *Grid) { g.Workloads = []string{"x/y"} }, "unknown workload"},
		{"unknown strategy", func(g *Grid) { g.Strategies = []string{"medium"} }, "unknown strategy"},
		{"bad fault spec", func(g *Grid) { g.Faults = []string{"bogus=1"} }, "unknown key"},
		{"duplicate cell", func(g *Grid) { g.Machines = []string{"opteron", "opteron"} }, "duplicate cell"},
	}
	for _, tc := range cases {
		g := valid
		tc.mutate(&g)
		_, err := expand(g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestExpandDefaults(t *testing.T) {
	g := Grid{
		Name:       "t",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit"},
		Strategies: []string{"small-lazy"},
		Seeds:      []uint64{1},
	}
	ex, err := expand(g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.grid.Ranks != 4 {
		t.Fatalf("default ranks = %d, want 4", ex.grid.Ranks)
	}
	if len(ex.cells) != 1 || ex.cells[0].Faults != "" {
		t.Fatalf("empty fault list should expand one clean cell, got %+v", ex.cells)
	}
}

func TestMixSeedDecorrelates(t *testing.T) {
	seen := make(map[uint64]bool)
	for base := uint64(0); base < 4; base++ {
		for seed := uint64(0); seed < 64; seed++ {
			seen[mixSeed(base, seed)] = true
		}
	}
	if len(seen) != 4*64 {
		t.Fatalf("mixSeed collided: %d distinct outputs of 256", len(seen))
	}
}

func TestStrategyByName(t *testing.T) {
	for _, s := range mpi.Strategies() {
		got, ok := StrategyByName(s.Name)
		if !ok || got != s {
			t.Fatalf("StrategyByName(%q) = %+v, %v", s.Name, got, ok)
		}
	}
	if _, ok := StrategyByName("nope"); ok {
		t.Fatal("unknown strategy resolved")
	}
}

func TestBuiltinWorkloadsRegistered(t *testing.T) {
	for _, name := range []string{
		"imb/sendrecv", "imb/pingpong", "alloc/abinit", "wr/sge", "wr/offset",
		"nas/cg", "nas/ep", "nas/is", "nas/lu", "nas/mg",
	} {
		if WorkloadByName(name) == nil {
			t.Errorf("builtin workload %q not registered", name)
		}
	}
	ws := Workloads()
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Name >= ws[i].Name {
			t.Fatal("Workloads() not sorted by name")
		}
	}
}

func TestBuiltinGridsExpand(t *testing.T) {
	for _, g := range BuiltinGrids() {
		if _, err := expand(g); err != nil {
			t.Errorf("builtin grid %q does not expand: %v", g.Name, err)
		}
	}
}

func TestLoadGridUnknownNameListsBuiltins(t *testing.T) {
	_, err := LoadGrid("nope")
	if err == nil || !strings.Contains(err.Error(), "smoke") {
		t.Fatalf("err = %v, want unknown-grid error naming the built-ins", err)
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
