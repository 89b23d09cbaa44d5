package analysis_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/timeflow"
)

// TestRunOrderIsCanonical holds reprolint's output to the same standard
// as the documents it guards: the findings of two analyzers over two
// fixture packages must come out identical whichever order the packages
// and analyzers are passed in, sorted by file, line, column, analyzer
// and message.
func TestRunOrderIsCanonical(t *testing.T) {
	all, err := analysis.NewLoader("timeflow/testdata/src", "").Load()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, p := range all {
		if p.PkgPath == "clock" || p.PkgPath == "tf" {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) != 2 {
		t.Fatalf("found %d of the 2 fixture packages", len(pkgs))
	}
	analyzers := []*analysis.Analyzer{determinism.Analyzer, timeflow.Analyzer}
	forward, err := analysis.Run(all, pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	backward, err := analysis.Run(all,
		[]*analysis.Package{pkgs[1], pkgs[0]},
		[]*analysis.Analyzer{analyzers[1], analyzers[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forward, backward) {
		t.Fatalf("findings depend on argument order:\n%v\nvs\n%v", forward, backward)
	}
	files := make(map[string]bool)
	byAnalyzer := make(map[string]bool)
	for _, f := range forward {
		files[f.Pos.Filename] = true
		byAnalyzer[f.Analyzer] = true
	}
	if len(files) != 2 || len(byAnalyzer) != 2 {
		t.Fatalf("want findings in both packages from both analyzers, got files %v, analyzers %v", files, byAnalyzer)
	}
	sorted := sort.SliceIsSorted(forward, func(i, j int) bool {
		a, b := forward[i], forward[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if !sorted {
		t.Fatalf("findings not sorted by file, line, column, analyzer, message:\n%v", forward)
	}
}
