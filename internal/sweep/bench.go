package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// SchemaVersion is the BENCH document version. Bump it on any change to
// the JSON shape; benchcheck rejects mismatches so stale baselines fail
// loudly instead of gating against the wrong fields.
const SchemaVersion = 1

// Bench is the canonical machine-readable record of one executed grid —
// the BENCH_<name>.json schema. Every slice is canonically sorted and
// every map marshals with sorted keys, so the same grid and seeds
// produce byte-identical documents under any worker count.
type Bench struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	// Grid echoes the executed grid spec.
	Grid Grid `json:"grid"`
	// Cells holds one entry per complete (workload, machine, strategy,
	// faults) configuration, sorted by that key.
	Cells []Cell `json:"cells"`
	// Comparisons holds the paired strategy speedups derivable from the
	// cells (huge vs small, lazy vs eager, ATT patch vs unpatched).
	Comparisons []Comparison `json:"comparisons,omitempty"`
}

// Comparison is one paired strategy comparison on one cell pair: the
// paper's speedup claims ("hugepages improve NAS communication by
// >8%") as first-class data.
type Comparison struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Faults   string `json:"faults,omitempty"`
	// Base and Test name the compared strategies; positive improvement
	// means Test beats Base.
	Base string `json:"base"`
	Test string `json:"test"`
	// ImprovementPct maps each metric to the direction-aware
	// improvement of Test's mean over Base's mean, in percent. For
	// lower-is-better tick metrics this is (base-test)/base*100 — the
	// paper's improvement convention.
	ImprovementPct map[string]float64 `json:"improvement_pct"`
	// Primary echoes the workload's primary metric; its improvement is
	// the comparison's headline number.
	Primary               string  `json:"primary"`
	PrimaryImprovementPct float64 `json:"primary_improvement_pct"`
}

// comparisonPairs are the strategy pairs worth a column: page size at
// both deregistration policies, deregistration policy at both page
// sizes, and the driver patch.
var comparisonPairs = []struct{ base, test string }{
	{"small", "huge"},
	{"small-lazy", "huge-lazy"},
	{"small", "small-lazy"},
	{"huge", "huge-lazy"},
	{"huge-lazy-noatt", "huge-lazy"},
	{"small", "adaptive"},
	{"huge", "adaptive"},
	{"small-lazy", "adaptive"},
	{"huge-lazy", "adaptive"},
	{"huge-lazy", "threshold"},
}

// comparisons derives every paired comparison present in the document.
// Cells are already sorted, so the output order is canonical.
func comparisons(b *Bench) []Comparison {
	type groupKey struct{ workload, machine, faults string }
	byStrategy := make(map[groupKey]map[string]*Cell)
	for i := range b.Cells {
		c := &b.Cells[i]
		k := groupKey{c.Workload, c.Machine, c.Faults}
		if byStrategy[k] == nil {
			byStrategy[k] = make(map[string]*Cell)
		}
		byStrategy[k][c.Strategy] = c
	}
	var out []Comparison
	for i := range b.Cells {
		c := &b.Cells[i]
		k := groupKey{c.Workload, c.Machine, c.Faults}
		for _, pair := range comparisonPairs {
			// Emit each pair once, keyed on its base cell.
			if c.Strategy != pair.base {
				continue
			}
			test, ok := byStrategy[k][pair.test]
			if !ok {
				continue
			}
			wl := WorkloadByName(c.Workload)
			if wl == nil {
				continue
			}
			cmp := Comparison{
				Workload:       c.Workload,
				Machine:        c.Machine,
				Faults:         c.Faults,
				Base:           pair.base,
				Test:           pair.test,
				Primary:        wl.Primary,
				ImprovementPct: make(map[string]float64),
			}
			for _, name := range sortedKeys(c.Stats) {
				bd, okB := c.Stats[name]
				td, okT := test.Stats[name]
				if !okB || !okT || bd.Mean == 0 {
					continue
				}
				// Direction: the primary metric's direction applies to
				// every tick-like metric; bandwidth metrics are the
				// higher-is-better primaries themselves.
				higher := wl.HigherIsBetter && name == wl.Primary
				imp := 100 * (bd.Mean - td.Mean) / bd.Mean
				if higher {
					imp = 100 * (td.Mean - bd.Mean) / bd.Mean
				}
				cmp.ImprovementPct[name] = imp
			}
			cmp.PrimaryImprovementPct = cmp.ImprovementPct[wl.Primary]
			out = append(out, cmp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Faults != b.Faults {
			return a.Faults < b.Faults
		}
		if a.Base != b.Base {
			return a.Base < b.Base
		}
		return a.Test < b.Test
	})
	return out
}

// IsWallMetric reports whether a metric name denotes a host-dependent
// wall-clock measurement — the "_per_wallsec" family the scale
// workloads report. Wall metrics are the one exception to "every value
// is a pure function of (cell, seed)": the gate compares them against a
// baseline with a generous tolerance, and byte-identity checks strip
// them first (StripWall).
func IsWallMetric(name string) bool {
	return strings.HasSuffix(name, "_per_wallsec")
}

// StripWall removes every wall-clock metric from the document's runs,
// stats and comparisons, in place, leaving the deterministic view that
// two executions of the same grid must reproduce byte for byte under
// any GOMAXPROCS and worker count.
func (b *Bench) StripWall() {
	for i := range b.Cells {
		c := &b.Cells[i]
		for j := range c.Runs {
			for name := range c.Runs[j].Metrics {
				if IsWallMetric(name) {
					delete(c.Runs[j].Metrics, name)
				}
			}
		}
		for name := range c.Stats {
			if IsWallMetric(name) {
				delete(c.Stats, name)
			}
		}
	}
	for i := range b.Comparisons {
		for name := range b.Comparisons[i].ImprovementPct {
			if IsWallMetric(name) {
				delete(b.Comparisons[i].ImprovementPct, name)
			}
		}
	}
}

// Write renders the document as the canonical indented JSON byte
// stream: sorted slices, sorted map keys (encoding/json's map
// behavior), one trailing newline. This is the single rendering path —
// the byte-identity guarantee lives here.
func (b *Bench) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteFile writes the document to path ("-" = stdout).
func (b *Bench) WriteFile(path string) error {
	if path == "-" {
		return b.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load strictly decodes one BENCH document: unknown fields and trailing
// data are errors, and the document must pass Validate. This is the
// baseline-loading path of regression gating, so a hand-edited or stale
// baseline fails here rather than producing nonsense verdicts.
func Load(r io.Reader) (*Bench, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var b Bench
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("sweep: not a valid BENCH document: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("sweep: trailing data after the BENCH document")
	}
	if err := Validate(&b); err != nil {
		return nil, err
	}
	return &b, nil
}

// LoadFile loads and validates a BENCH document from a path.
func LoadFile(path string) (*Bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Validate checks the document invariants benchcheck and the gate rely
// on: schema version, canonical cell order, strictly increasing seed
// lists, seed-aligned runs, and stats covering every run metric.
func Validate(b *Bench) error {
	if b.SchemaVersion != SchemaVersion {
		return fmt.Errorf("sweep: schema_version %d, this build reads %d", b.SchemaVersion, SchemaVersion)
	}
	if b.Name == "" {
		return fmt.Errorf("sweep: document missing a name")
	}
	if len(b.Cells) == 0 {
		return fmt.Errorf("sweep: document has no cells")
	}
	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Workload == "" || c.Machine == "" || c.Strategy == "" {
			return fmt.Errorf("sweep: cell %d missing workload/machine/strategy", i)
		}
		if i > 0 && !cellLess(&b.Cells[i-1], c) {
			return fmt.Errorf("sweep: cells out of canonical order at %s", c.Key())
		}
		if len(c.Seeds) == 0 {
			return fmt.Errorf("sweep: cell %s has no seeds", c.Key())
		}
		for j := 1; j < len(c.Seeds); j++ {
			if c.Seeds[j] <= c.Seeds[j-1] {
				return fmt.Errorf("sweep: cell %s seed list not strictly increasing (%d after %d)", c.Key(), c.Seeds[j], c.Seeds[j-1])
			}
		}
		if len(c.Runs) != len(c.Seeds) {
			return fmt.Errorf("sweep: cell %s has %d runs for %d seeds", c.Key(), len(c.Runs), len(c.Seeds))
		}
		if len(c.Stats) == 0 {
			return fmt.Errorf("sweep: cell %s missing stats", c.Key())
		}
		for j, r := range c.Runs {
			if r.Seed != c.Seeds[j] {
				return fmt.Errorf("sweep: cell %s run %d carries seed %d, want %d", c.Key(), j, r.Seed, c.Seeds[j])
			}
			if len(r.Metrics) == 0 {
				return fmt.Errorf("sweep: cell %s run %d has no metrics", c.Key(), j)
			}
			for _, name := range sortedKeys(r.Metrics) {
				if _, ok := c.Stats[name]; !ok {
					return fmt.Errorf("sweep: cell %s metric %q missing from stats", c.Key(), name)
				}
			}
		}
		for _, name := range sortedKeys(c.Stats) {
			d := c.Stats[name]
			if d.N <= 0 || d.N > len(c.Runs) {
				return fmt.Errorf("sweep: cell %s stat %q has n=%d for %d runs", c.Key(), name, d.N, len(c.Runs))
			}
			if d.Min > d.Mean || d.Mean > d.Max || d.Min > d.Median || d.Median > d.Max {
				return fmt.Errorf("sweep: cell %s stat %q violates min <= mean/median <= max", c.Key(), name)
			}
			if d.Stddev < 0 {
				return fmt.Errorf("sweep: cell %s stat %q has negative stddev", c.Key(), name)
			}
		}
		// The stats must be exactly what this build's aggregation derives
		// from the runs — JSON round-trips float64 losslessly, so a
		// baseline computed by an older formula (the pre-Student-t z
		// quantile) or a hand-edited document fails here rather than
		// gating against wrong intervals.
		re := Cell{Runs: c.Runs}
		re.aggregate()
		if len(re.Stats) != len(c.Stats) {
			return fmt.Errorf("sweep: cell %s has %d stats for %d run metrics", c.Key(), len(c.Stats), len(re.Stats))
		}
		for _, name := range sortedKeys(re.Stats) {
			if got, want := c.Stats[name], re.Stats[name]; got != want {
				return fmt.Errorf("sweep: cell %s stat %q does not match its runs (have %+v, recomputed %+v)", c.Key(), name, got, want)
			}
		}
	}
	for i, c := range b.Comparisons {
		if c.Workload == "" || c.Base == "" || c.Test == "" || c.Primary == "" {
			return fmt.Errorf("sweep: comparison %d missing workload/base/test/primary", i)
		}
	}
	return nil
}

// RequireBest checks that the named strategy is best-or-tied on the
// workload's primary metric in every (workload, machine, faults) group
// that carries it, and returns one message per violation — a group
// where some other strategy's mean is strictly better. This is the
// claim the policy grid exists to gate: the adaptive policy must never
// lose to a fixed strategy, including the cells where hugepages
// themselves lose (NAS IS). An empty return means the claim holds.
func RequireBest(b *Bench, name string) []string {
	type groupKey struct{ workload, machine, faults string }
	groups := make(map[groupKey]map[string]*Cell)
	for i := range b.Cells {
		c := &b.Cells[i]
		k := groupKey{c.Workload, c.Machine, c.Faults}
		if groups[k] == nil {
			groups[k] = make(map[string]*Cell)
		}
		groups[k][c.Strategy] = c
	}
	var out []string
	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Strategy != name {
			continue
		}
		wl := WorkloadByName(c.Workload)
		if wl == nil {
			continue
		}
		td, ok := c.Stats[wl.Primary]
		if !ok {
			continue
		}
		group := groups[groupKey{c.Workload, c.Machine, c.Faults}]
		for _, other := range sortedKeys(group) {
			oc := group[other]
			if other == name {
				continue
			}
			od, ok := oc.Stats[wl.Primary]
			if !ok {
				continue
			}
			worse := od.Mean < td.Mean
			if wl.HigherIsBetter {
				worse = od.Mean > td.Mean
			}
			if worse {
				out = append(out, fmt.Sprintf("%s: %s beats %s on %s (%.6g vs %.6g)",
					c.Key(), other, name, wl.Primary, od.Mean, td.Mean))
			}
		}
	}
	sort.Strings(out)
	return out
}

// Regression is one gate finding: a cell whose primary metric got worse
// than the baseline by more than the tolerance.
type Regression struct {
	Cell     string
	Metric   string
	Baseline float64
	Current  float64
	// WorsePct is how much worse current is, in percent of baseline,
	// direction-aware (always positive for a regression).
	WorsePct float64
	// Missing marks a cell whose current run lacks the primary metric
	// the baseline carries; Current and WorsePct are then zero.
	Missing bool
}

func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: %s missing (baseline %.6g)", r.Cell, r.Metric, r.Baseline)
	}
	return fmt.Sprintf("%s: %s %.6g -> %.6g (%.2f%% worse)", r.Cell, r.Metric, r.Baseline, r.Current, r.WorsePct)
}

// Gate compares the current document's cells against a baseline on each
// workload's primary metric mean and returns every cell that regressed
// beyond tolPct percent, or that lost the primary metric the baseline
// carries. Cells absent from either side are ignored (new cells gate
// from their first committed baseline onward). The returned slice is
// sorted by cell key.
func Gate(current, baseline *Bench, tolPct float64) []Regression {
	base := make(map[string]*Cell, len(baseline.Cells))
	for i := range baseline.Cells {
		base[baseline.Cells[i].Key()] = &baseline.Cells[i]
	}
	var out []Regression
	for i := range current.Cells {
		cur := &current.Cells[i]
		bc, ok := base[cur.Key()]
		if !ok {
			continue
		}
		wl := WorkloadByName(cur.Workload)
		if wl == nil {
			continue
		}
		bd, ok := bc.Stats[wl.Primary]
		if !ok {
			continue
		}
		cd, ok := cur.Stats[wl.Primary]
		if !ok {
			out = append(out, Regression{Cell: cur.Key(), Metric: wl.Primary, Baseline: bd.Mean, Missing: true})
			continue
		}
		if bd.Mean == 0 {
			continue
		}
		worse := 100 * (cd.Mean - bd.Mean) / bd.Mean
		if wl.HigherIsBetter {
			worse = 100 * (bd.Mean - cd.Mean) / bd.Mean
		}
		if worse > tolPct {
			out = append(out, Regression{
				Cell:     cur.Key(),
				Metric:   wl.Primary,
				Baseline: bd.Mean,
				Current:  cd.Mean,
				WorsePct: worse,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}
