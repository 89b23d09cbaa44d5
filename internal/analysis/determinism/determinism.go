// Package determinism forbids wall-clock and unseeded-entropy sources
// outside the two packages allowed to own them. The repo's headline
// property — same-seed runs are byte-identical, even under -race — only
// holds because every timestamp comes from internal/simtime's virtual
// clock and every random decision from a seeded generator (the
// workload traces' rand.New(rand.NewSource(seed)), internal/faults'
// splitmix64 schedules). A single stray time.Now or global rand.Intn in
// a simulation or report path silently breaks the CI golden check, so
// the ban is enforced at analysis time rather than discovered as a
// flaky golden diff.
package determinism

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// AllowedPkgs are the packages permitted to traffic in real time and
// raw entropy: simtime because it defines virtual time, and faults
// because its seeded schedules are the sanctioned randomness source.
var AllowedPkgs = map[string]bool{
	"repro/internal/simtime": true,
	"repro/internal/faults":  true,
}

// forbiddenTime lists the wall-clock entry points of package time.
// Types and arithmetic (time.Duration and friends) stay legal; only
// reading or waiting on the real clock is banned.
var forbiddenTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// allowedRand lists the math/rand (and /v2) package functions that only
// construct explicitly seeded generators. Everything else at package
// level draws from the shared global source, whose sequence depends on
// what other code consumed before — non-reproducible by construction.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// forbiddenOS lists os functions whose results differ run to run.
var forbiddenOS = map[string]bool{
	"Getpid":  true,
	"Getppid": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks and unseeded entropy (time.Now, time.Sleep, global math/rand, " +
		"crypto/rand, os.Getpid) outside internal/simtime and internal/faults; " +
		"same-seed runs must stay byte-identical",
	Run: run,
}

// timeFix builds the machine fix for a wall-clock use where the
// virtual-time rewrite is mechanical: time.Now() becomes clk.Now() and
// time.Sleep(d) becomes clk.Advance(simtime.FromDuration(d)), both
// referencing the threaded *simtime.Clock the surrounding code is
// expected to name clk (the repo's pervasive convention). Other entry
// points (Since, Tick, timers) have no one-expression equivalent, so
// they report without a fix.
func timeFix(pkgIdent *ast.Ident, name string, call *ast.CallExpr) (analysis.SuggestedFix, bool) {
	switch name {
	case "Now":
		return analysis.SuggestedFix{
			Message: "read the threaded simtime clock (clk.Now())",
			TextEdits: []analysis.TextEdit{
				{Pos: pkgIdent.Pos(), End: pkgIdent.End(), NewText: "clk"},
			},
		}, true
	case "Sleep":
		if call == nil || len(call.Args) != 1 {
			return analysis.SuggestedFix{}, false
		}
		return analysis.SuggestedFix{
			Message: "advance the threaded simtime clock instead of sleeping",
			TextEdits: []analysis.TextEdit{
				{Pos: call.Pos(), End: call.Lparen + 1, NewText: "clk.Advance(simtime.FromDuration("},
				{Pos: call.Rparen, End: call.Rparen, NewText: ")"},
			},
		}, true
	}
	return analysis.SuggestedFix{}, false
}

func run(pass *analysis.Pass) (any, error) {
	if AllowedPkgs[strings.TrimSuffix(pass.Pkg.Path(), "_test")] {
		return nil, nil
	}
	for _, file := range pass.Files {
		ignored := analysis.IgnoredLines(pass.Fset, file)
		for _, imp := range file.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "crypto/rand" &&
				!ignored[pass.Fset.Position(imp.Pos()).Line] {
				pass.Reportf(imp.Pos(), "crypto/rand is non-reproducible entropy; derive randomness from a seed (internal/faults' splitmix64, or rand.New(rand.NewSource(seed)))")
			}
		}
		// callOf maps a selector to the call invoking it, for the fixes
		// that must rewrite around the argument list (time.Sleep).
		callOf := make(map[*ast.SelectorExpr]*ast.CallExpr)
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					callOf[sel] = call
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			if ignored[pass.Fset.Position(sel.Pos()).Line] {
				return true
			}
			name := sel.Sel.Name
			switch pkgName.Imported().Path() {
			case "time":
				if forbiddenTime[name] {
					msg := fmt.Sprintf("time.%s reads the wall clock; simulations and reports must use internal/simtime virtual time", name)
					if fix, ok := timeFix(ident, name, callOf[sel]); ok {
						pass.ReportFix(sel.Pos(), fix, "%s", msg)
					} else {
						pass.Reportf(sel.Pos(), "%s", msg)
					}
				}
			case "math/rand", "math/rand/v2":
				// A type such as rand.Rand names a generator; only
				// package-level functions draw from the global source.
				if _, isType := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); !isType && !allowedRand[name] {
					pass.ReportFix(sel.Pos(), analysis.SuggestedFix{
						Message: "draw from a seeded generator rng (rand.New(rand.NewSource(seed)))",
						TextEdits: []analysis.TextEdit{
							{Pos: ident.Pos(), End: ident.End(), NewText: "rng"},
						},
					}, "global rand.%s draws from the shared unseeded source; use rand.New(rand.NewSource(seed)) or an internal/faults schedule", name)
				}
			case "os":
				if forbiddenOS[name] {
					pass.Reportf(sel.Pos(), "os.%s differs run to run; thread an explicit seed or identifier instead", name)
				}
			}
			return true
		})
	}
	return nil, nil
}
