package sweep

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// executedFixture runs the cheapest meaningful grid once per test
// process and hands out a fresh decoded copy each call, so tests can
// mutate freely.
var fixtureBytes []byte

func fixture(t *testing.T) *Bench {
	t.Helper()
	if fixtureBytes == nil {
		g := Grid{
			Name:       "fixture",
			Machines:   []string{"opteron"},
			Workloads:  []string{"alloc/abinit"},
			Strategies: []string{"small-lazy", "huge-lazy"},
			Seeds:      []uint64{1, 2, 3},
		}
		b, runErrs, err := Execute(g, 2)
		if err != nil || len(runErrs) != 0 {
			t.Fatalf("fixture grid failed: err=%v runErrs=%v", err, runErrs)
		}
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatal(err)
		}
		fixtureBytes = buf.Bytes()
	}
	b, err := Load(bytes.NewReader(fixtureBytes))
	if err != nil {
		t.Fatalf("fixture does not round-trip: %v", err)
	}
	return b
}

func TestBenchRoundTripsByteIdentically(t *testing.T) {
	b := fixture(t)
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fixtureBytes) {
		t.Fatal("Write(Load(doc)) differs from doc: the canonical rendering is not stable")
	}
}

func TestBenchCarriesComparisonsAndCI(t *testing.T) {
	b := fixture(t)
	if len(b.Comparisons) != 1 {
		t.Fatalf("got %d comparisons, want the small-lazy -> huge-lazy pair", len(b.Comparisons))
	}
	c := b.Comparisons[0]
	if c.Base != "small-lazy" || c.Test != "huge-lazy" || c.Primary != "alloc_ticks" {
		t.Fatalf("comparison = %+v", c)
	}
	if c.PrimaryImprovementPct != c.ImprovementPct["alloc_ticks"] {
		t.Fatal("headline improvement does not match the primary metric column")
	}
	for i := range b.Cells {
		d, ok := b.Cells[i].Stats["alloc_ticks"]
		if !ok || d.N != 3 {
			t.Fatalf("cell %s missing three-replicate alloc_ticks stats", b.Cells[i].Key())
		}
		if d.Stddev == 0 || d.CI95 == 0 {
			t.Fatalf("cell %s has degenerate spread — seed replication is not perturbing runs", b.Cells[i].Key())
		}
	}
}

func TestGatePassesAgainstItself(t *testing.T) {
	b := fixture(t)
	if regs := Gate(b, b, 0.5); len(regs) != 0 {
		t.Fatalf("self-gate found regressions: %v", regs)
	}
}

// TestGateFlagsDoctoredBaseline doctors the baseline so its huge-lazy
// cell looks faster than the current run beyond tolerance, and expects
// the gate to name exactly that cell.
func TestGateFlagsDoctoredBaseline(t *testing.T) {
	cur := fixture(t)
	base := fixture(t)
	var doctored string
	for i := range base.Cells {
		if base.Cells[i].Strategy != "huge-lazy" {
			continue
		}
		d := base.Cells[i].Stats["alloc_ticks"]
		d.Mean /= 2 // baseline twice as fast => current is 100% worse
		base.Cells[i].Stats["alloc_ticks"] = d
		doctored = base.Cells[i].Key()
	}
	regs := Gate(cur, base, 5)
	if len(regs) != 1 {
		t.Fatalf("gate found %d regressions, want 1: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Cell != doctored || r.Metric != "alloc_ticks" || r.WorsePct < 90 {
		t.Fatalf("regression = %+v, want the doctored cell ~100%% worse", r)
	}
	if !strings.Contains(r.String(), doctored) {
		t.Fatalf("regression string %q does not name the cell", r.String())
	}
}

// TestGateFlagsMissingPrimary deletes one cell's primary statistic from
// the current run and expects the gate to name exactly that cell and
// the missing metric, rather than skip a cell it cannot measure.
func TestGateFlagsMissingPrimary(t *testing.T) {
	cur := fixture(t)
	base := fixture(t)
	victim := cur.Cells[0].Key()
	delete(cur.Cells[0].Stats, "alloc_ticks")
	regs := Gate(cur, base, 5)
	if len(regs) != 1 {
		t.Fatalf("gate found %d regressions, want 1: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Cell != victim || r.Metric != "alloc_ticks" || !r.Missing {
		t.Fatalf("regression = %+v, want %s missing alloc_ticks", r, victim)
	}
	if s := r.String(); !strings.Contains(s, victim) || !strings.Contains(s, "alloc_ticks missing") {
		t.Fatalf("regression string %q does not name the cell and the missing metric", s)
	}
}

// TestGateDirectionAware checks both metric directions on hand-built
// documents: for higher-is-better primaries a *drop* is the regression.
func TestGateDirectionAware(t *testing.T) {
	mk := func(mean float64) *Bench {
		return &Bench{
			SchemaVersion: SchemaVersion,
			Name:          "t",
			Cells: []Cell{{
				Workload: "imb/sendrecv", Machine: "opteron", Strategy: "huge-lazy",
				Seeds: []uint64{1},
				Runs:  []Run{{Seed: 1, Metrics: Metrics{"bw_mbs_4m": mean}}},
				Stats: map[string]Dist{"bw_mbs_4m": {N: 1, Mean: mean, Median: mean, Min: mean, Max: mean}},
			}},
		}
	}
	// Bandwidth fell 20%: regression.
	if regs := Gate(mk(800), mk(1000), 5); len(regs) != 1 {
		t.Fatalf("bandwidth drop not flagged: %v", regs)
	}
	// Bandwidth rose 20%: improvement, not a regression.
	if regs := Gate(mk(1200), mk(1000), 5); len(regs) != 0 {
		t.Fatalf("bandwidth gain flagged as regression: %v", regs)
	}
	// Within tolerance: quiet.
	if regs := Gate(mk(970), mk(1000), 5); len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}
	// Cells missing from the baseline are ignored.
	empty := &Bench{SchemaVersion: SchemaVersion, Name: "t"}
	if regs := Gate(mk(800), empty, 5); len(regs) != 0 {
		t.Fatalf("cell absent from baseline flagged: %v", regs)
	}
}

// TestStripWallRemovesWallMetrics: a wall-reporting workload's run
// carries its _per_wallsec metric, and StripWall leaves the
// deterministic view, which two executions render byte-identically.
func TestStripWallRemovesWallMetrics(t *testing.T) {
	g := Grid{
		Name:       "walltest",
		Machines:   []string{"opteron"},
		Workloads:  []string{"scale/sendrecv"},
		Strategies: []string{"huge-lazy"},
		Seeds:      []uint64{1},
		Ranks:      2,
	}
	var views [2]bytes.Buffer
	for i := range views {
		b, errs, err := Execute(g, 1)
		if err != nil || len(errs) != 0 {
			t.Fatalf("run %d: %v %v", i, errs, err)
		}
		if _, ok := b.Cells[0].Stats["ticks_per_wallsec"]; !ok {
			t.Fatal("run missing its wall metric")
		}
		b.StripWall()
		for name := range b.Cells[0].Stats {
			if IsWallMetric(name) {
				t.Fatalf("stats kept wall metric %s", name)
			}
		}
		for name := range b.Cells[0].Runs[0].Metrics {
			if IsWallMetric(name) {
				t.Fatalf("run kept wall metric %s", name)
			}
		}
		if err := b.Write(&views[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(views[0].Bytes(), views[1].Bytes()) {
		t.Fatal("stripped views of two runs differ")
	}
}

func TestLoadRejectsCorruptDocuments(t *testing.T) {
	b := fixture(t)
	b.Cells[0].Stats["alloc_ticks"] = Dist{N: 99, Mean: 1, Median: 1, Min: 1, Max: 1}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "n=99") {
		t.Fatalf("err = %v, want stat-sanity complaint", err)
	}
}

func TestFormatTablesCoverEveryCell(t *testing.T) {
	b := fixture(t)
	cells := FormatCells(b)
	for i := range b.Cells {
		if !strings.Contains(cells, b.Cells[i].Key()) {
			t.Fatalf("FormatCells omits %s", b.Cells[i].Key())
		}
	}
	cmps := FormatComparisons(b)
	if !strings.Contains(cmps, "small-lazy -> huge-lazy") {
		t.Fatal("FormatComparisons omits the strategy pair")
	}
	if strings.Contains(cmps, VirtTicks) {
		t.Fatal("FormatComparisons leaks the internal virt_ticks metric")
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
	want := map[string]bool{"BENCH_seed.json": false, "BENCH_policy.json": false, "BENCH_modern.json": false, "BENCH_scale.json": false}
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
