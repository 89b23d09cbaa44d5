package analysis_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// sharedModuleLoad loads the whole module from source once per test
// binary for every test below; only TestModuleDeterministicEdgeList
// loads it a second time, for its comparison.
var sharedModuleLoad = sync.OnceValues(freshModuleLoad)

func loadModule(t *testing.T) []*analysis.Package {
	t.Helper()
	pkgs, err := sharedModuleLoad()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func freshModuleLoad() ([]*analysis.Package, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	return analysis.NewLoader(root, "repro").Load()
}

// TestLoadModuleTree checks the module load cmd/reprolint analyzes for
// the properties the analyzers depend on: every package type-checks,
// test variants load (including external test packages that use
// export_test.go helpers), and testdata fixture trees stay invisible.
func TestLoadModuleTree(t *testing.T) {
	byPath := make(map[string]*analysis.Package)
	for _, p := range loadModule(t) {
		if strings.Contains(p.PkgPath, "testdata") {
			t.Errorf("testdata leaked into the load: %s", p.PkgPath)
		}
		byPath[p.PkgPath] = p
	}
	for _, want := range []string{
		"repro",
		"repro/internal/faults",
		"repro/internal/node",
		"repro/internal/alloc_test", // external test package built against export_test.go
		"repro/cmd/repro",
	} {
		if byPath[want] == nil {
			t.Errorf("missing package %s", want)
		}
	}
	if p := byPath["repro/internal/node"]; p != nil {
		if p.Types == nil || p.TypesInfo == nil || len(p.TypesInfo.Defs) == 0 {
			t.Error("node package loaded without type information")
		}
	}
}

// TestModuleDeterministicEdgeList requires two independent loads of the
// module to render byte-identical call-graph edge lists — the callgraph
// analogue of the repo's same-seed golden checks, over the tree
// reprolint actually analyzes.
func TestModuleDeterministicEdgeList(t *testing.T) {
	a := strings.Join(callgraph.Build(loadModule(t)).Describe(), "\n")
	again, err := freshModuleLoad()
	if err != nil {
		t.Fatal(err)
	}
	b := strings.Join(callgraph.Build(again).Describe(), "\n")
	if a != b {
		t.Fatal("two loads of the module rendered different edge lists")
	}
	if !strings.Contains(a, "repro/internal/mpi") {
		t.Fatal("module graph is missing internal/mpi nodes")
	}
}
