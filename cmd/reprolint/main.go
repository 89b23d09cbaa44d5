// Command reprolint is the repo's multichecker: it runs every
// internal/analysis analyzer over the module and exits non-zero on any
// diagnostic. CI runs it on each push; locally, `make lint` or
//
//	go run ./cmd/reprolint ./...
//
// checks the whole tree (test files included). The analyzers enforce
// the invariants behind the byte-identical same-seed guarantee — see
// DESIGN.md §7:
//
//	determinism   no wall clocks or unseeded entropy outside
//	              internal/simtime and internal/faults
//	maporder      no map-iteration-ordered output in report paths
//	statspairing  gauge counters have paired inc/dec accounting
//	nilspec       nil-safe types guard every exported pointer method
//	schedonly     no raw goroutines, channels, select, WaitGroups,
//	              sync.Mutex/RWMutex or sync/atomic in simulation
//	              packages; blocking goes through internal/sched
//	timeflow      interprocedural taint: wall-clock/entropy values must
//	              not flow into trace spans or benchmark reports
//	tickunits     simtime.Ticks and nanoseconds convert only through
//	              the From*/Nanos constructors; no sub-tick constants
//	parkflow      park-capable sched calls only from task context;
//	              gate acquisition order is globally consistent
//
// Package patterns narrow which packages are reported on, never what
// the interprocedural analyzers see: the whole module is loaded and
// handed to them, so `reprolint ./internal/sweep/...` still catches a
// wall-clock value laundered into the sweep engine from elsewhere.
//
// Flags:
//
//	-list      print the analyzers and exit
//	-only=a,b  run only the named analyzers
//	-fix       apply suggested fixes to the source tree; only findings
//	           without a machine fix still fail the run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nilspec"
	"repro/internal/analysis/parkflow"
	"repro/internal/analysis/schedonly"
	"repro/internal/analysis/statspairing"
	"repro/internal/analysis/tickunits"
	"repro/internal/analysis/timeflow"
)

var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	maporder.Analyzer,
	nilspec.Analyzer,
	parkflow.Analyzer,
	schedonly.Analyzer,
	statspairing.Analyzer,
	tickunits.Analyzer,
	timeflow.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source tree")
	flag.Parse()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fail(err)
	}
	root, modulePath, err := findModule()
	if err != nil {
		fail(err)
	}
	all, err := analysis.NewLoader(root, modulePath).Load()
	if err != nil {
		fail(err)
	}
	pkgs, err := filterPackages(all, root, flag.Args())
	if err != nil {
		fail(err)
	}
	findings, err := analysis.Run(all, pkgs, analyzers)
	if err != nil {
		fail(err)
	}
	if *fix {
		findings, err = applyFixes(findings)
		if err != nil {
			fail(err)
		}
	}
	// Findings print with module-relative paths, the same from any
	// checkout or working directory.
	for _, f := range findings {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d diagnostic(s)\n", len(findings))
		os.Exit(1)
	}
}

// fail reports an error that kept the suite from running (exit 2, as
// distinct from exit 1 for findings).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "reprolint:", err)
	os.Exit(2)
}

// applyFixes writes every suggested fix back to the source tree and
// returns only the findings that carried no fix — those still need a
// human and keep the run red; everything fixed is considered resolved.
func applyFixes(findings []analysis.Finding) ([]analysis.Finding, error) {
	fixed, err := analysis.ApplyFixes(findings)
	if err != nil {
		return nil, err
	}
	files := make([]string, 0, len(fixed))
	for f := range fixed {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		if err := os.WriteFile(f, fixed[f], 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "reprolint: rewrote %s\n", f)
	}
	var rest []analysis.Finding
	for _, f := range findings {
		if len(f.Fixes) == 0 {
			rest = append(rest, f)
		}
	}
	return rest, nil
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			valid := make([]string, 0, len(suite))
			for _, a := range suite {
				valid = append(valid, a.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q; valid analyzers: %s", name, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// findModule walks up from the working directory to go.mod and reads
// the module path from it.
func findModule() (root, modulePath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// filterPackages narrows the loaded set to the requested patterns:
// "./..." (or no argument) keeps everything; "./dir/..." keeps a
// subtree; "./dir" keeps one directory. Patterns resolve relative to
// the working directory, so reprolint behaves like go vet from any
// directory in the module.
func filterPackages(pkgs []*analysis.Package, root string, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var out []*analysis.Package
	kept := make(map[*analysis.Package]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		dir := filepath.Clean(filepath.Join(cwd, pat))
		matched := false
		for _, p := range pkgs {
			ok := p.Dir == dir || (recursive && strings.HasPrefix(p.Dir+string(filepath.Separator), dir+string(filepath.Separator)))
			if ok && !kept[p] {
				kept[p] = true
				out = append(out, p)
			}
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages under %s", pat, root)
		}
	}
	return out, nil
}
