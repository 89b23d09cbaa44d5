// Package schedonly forbids raw Go concurrency — go statements,
// channel types, select, sync.WaitGroup, sync.Mutex, sync.RWMutex and
// sync/atomic — everywhere except the packages that are allowed to own
// it. Since the event-scheduler refactor, every simulated rank runs as
// a cooperative task on internal/sched, and the execution schedule is a
// pure function of virtual time precisely because nothing ever blocks
// on the Go runtime scheduler. A single raw goroutine or channel in a
// simulation package reintroduces GOMAXPROCS-dependent interleavings,
// which breaks the byte-identical same-seed guarantee in exactly the
// way the old one-goroutine-per-rank engine did — so the ban is
// enforced at analysis time, not rediscovered as a flaky golden diff.
//
// Blocking simulation code should use sched.Queue and sched.Gate (which
// park the task and hand the baton back to the scheduler) and spawn
// concurrent work with Scheduler.Spawn / Task.Join. Locks and atomics
// are banned too: the scheduler runs one task at a time and every baton
// hand-off is a happens-before edge, so they guard nothing and only
// cost cache-line traffic on the hot path. Code that really is shared
// across host threads states why on a //reprolint:ignore line.
package schedonly

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ExemptPkgs are the packages permitted to use raw concurrency:
// internal/sched because it is where the cooperative tasks are
// implemented (its goroutines never run concurrently — the baton
// protocol keeps exactly one runnable), and internal/sweep because its
// worker pool parallelises whole independent simulations on the host
// and never reaches inside one.
var ExemptPkgs = map[string]bool{
	"repro/internal/sched": true,
	"repro/internal/sweep": true,
}

// exemptPrefixes extends the exemption to host-side tooling trees:
// the analysis framework itself, the command mains and the benchmark
// harness that times whole simulations, none of which execute inside a
// simulated world.
var exemptPrefixes = []string{
	"repro/internal/analysis",
	"repro/cmd/",
	"repro/benchmark",
}

var Analyzer = &analysis.Analyzer{
	Name: "schedonly",
	Doc: "forbid raw goroutines, channels, select, sync.WaitGroup, mutexes and " +
		"sync/atomic in simulation packages; all blocking must go through " +
		"internal/sched so the schedule stays a pure function of virtual time",
	Run: run,
}

func exempt(path string) bool {
	if ExemptPkgs[path] {
		return true
	}
	for _, p := range exemptPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	if exempt(strings.TrimSuffix(pass.Pkg.Path(), "_test")) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ignored := analysis.IgnoredLines(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var node ast.Node
			var msg string
			switch n := n.(type) {
			case *ast.GoStmt:
				node, msg = n, "go statement spawns a goroutine outside internal/sched; use Scheduler.Spawn and Task.Join so the event scheduler owns the interleaving"
			case *ast.ChanType:
				node, msg = n, "raw channel in simulation code blocks on the Go runtime scheduler; use sched.Queue (or sched.Gate) so waits are deterministic events"
			case *ast.SelectStmt:
				node, msg = n, "select races goroutines against each other nondeterministically; sequence the cases as scheduler events instead"
			case *ast.SelectorExpr:
				if msg = selectorMsg(pass, n); msg == "" {
					return true
				}
				node = n
			default:
				return true
			}
			if !ignored[pass.Fset.Position(node.Pos()).Line] {
				pass.Reportf(node.Pos(), "%s", msg)
			}
			return true
		})
	}
	return nil, nil
}

// selectorMsg returns the diagnostic for a banned sync or sync/atomic
// selector, or "" if n is not one.
func selectorMsg(pass *analysis.Pass, n *ast.SelectorExpr) string {
	ident, ok := n.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkg, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
	if !ok {
		return ""
	}
	switch path := pkg.Imported().Path(); {
	case path == "sync/atomic":
		return "sync/atomic in simulation code guards nothing: the scheduler runs one task at a time and each baton hand-off is a happens-before edge"
	case path != "sync":
		return ""
	case n.Sel.Name == "WaitGroup":
		return "sync.WaitGroup synchronises raw goroutines; use Task.Join (or a sched.Gate) to wait for scheduler tasks"
	case n.Sel.Name == "Mutex" || n.Sel.Name == "RWMutex":
		return "sync." + n.Sel.Name + " in simulation code guards nothing: the scheduler runs one task at a time and each baton hand-off is a happens-before edge"
	}
	return ""
}
