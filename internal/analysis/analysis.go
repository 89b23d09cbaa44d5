// Package analysis is a self-contained static-analysis framework for
// the repro tree, mirroring the core API of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) on the standard library alone — the
// module deliberately has no external dependencies, so the real
// framework cannot be vendored. Should that change, each analyzer ports
// by swapping this import for the upstream one.
//
// The framework exists to enforce invariants the test suite can only
// spot-check at runtime (DESIGN.md §7):
//
//   - determinism: same-seed runs are byte-identical, so nothing outside
//     internal/simtime and internal/faults may consult wall clocks or
//     unseeded entropy.
//   - maporder: report/stat paths must not leak Go's randomized map
//     iteration order into output.
//   - statspairing: gauge-style counters must have matching
//     increment/decrement paths.
//   - nilspec: nil-safe types must guard every exported pointer method.
//   - schedonly: simulation packages use no goroutines, channels,
//     select, WaitGroups, locks or atomics; internal/sched owns
//     concurrency.
//   - tickunits: simtime.Ticks and nanoseconds convert only through the
//     sanctioned bridges, and no Ticks constant truncates to zero.
//   - timeflow: wall-clock and entropy values must not flow, through
//     any chain of helpers, into trace records or BENCH reports.
//   - parkflow: functions that can park only run in task context, and
//     gates are acquired in one global order.
//
// The last two are interprocedural: they share the whole-module call
// graph (callgraph) and taint engine (taint) through Pass.Module.
// cmd/reprolint is the multichecker driver; analysistest runs analyzers
// over testdata fixtures with // want expectations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// reprolint command line.
	Name string
	// Doc is the one-paragraph description shown by reprolint -list.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through pass.Report. The result value is unused by this driver
	// but kept for API parity.
	Run func(*Pass) (any, error)
}

// Pass hands one analyzer one type-checked package. Module exposes the
// whole loaded module to interprocedural analyzers (callgraph, taint);
// per-package analyzers ignore it.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Module    *Module
	Report    func(Diagnostic)
}

// Module is the whole-module view shared by every pass of one Run: the
// full package list plus a memoisation cache, so expensive module-wide
// structures (the call graph, taint summaries) are built once and
// reused by every analyzer and package that needs them.
type Module struct {
	Pkgs  []*Package
	cache map[string]any
}

// Cache memoises a module-wide computation under key. The first caller
// builds; everyone after gets the same value. Run is single-threaded,
// so no locking is needed.
func (m *Module) Cache(key string, build func() any) any {
	if v, ok := m.cache[key]; ok {
		return v
	}
	v := build()
	m.cache[key] = v
	return v
}

// TextEdit is one replacement of the source range [Pos, End) by NewText.
// An insertion has Pos == End.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// SuggestedFix is one self-contained change that addresses a
// diagnostic, as a set of non-overlapping text edits. Fixes are
// suggestions: they may reference identifiers the surrounding code
// still has to declare (a threaded clock, a seeded generator), and
// reprolint -fix applies them verbatim.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// Diagnostic is one finding at one position, optionally carrying
// machine-applicable fixes.
type Diagnostic struct {
	Pos            token.Pos
	Message        string
	SuggestedFixes []SuggestedFix
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportFix reports a diagnostic carrying one suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...),
		SuggestedFixes: []SuggestedFix{fix}})
}

// Edit is a resolved text edit: file plus byte offsets, ready to apply.
type Edit struct {
	File    string
	Start   int
	End     int
	NewText string
}

// Fix is a resolved suggested fix.
type Fix struct {
	Message string
	Edits   []Edit
}

// Finding is a resolved diagnostic: position plus originating analyzer,
// ready for printing and sorting.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []Fix
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package in report and returns
// the combined findings in a deterministic order (by file, line,
// column, analyzer, message) — reprolint's own output must not depend
// on map iteration, scheduling or the order packages were named in.
// all is the whole loaded tree: interprocedural analyzers build their
// module-wide structures from it, so a cross-package flow into a
// reported package stays visible however narrow report is. Both
// cmd/reprolint and analysistest pass everything they loaded as all.
func Run(all, report []*Package, analyzers []*Analyzer) ([]Finding, error) {
	module := &Module{Pkgs: all, cache: make(map[string]any)}
	var findings []Finding
	for _, pkg := range report {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Module:    module,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
					Fixes:    resolveFixes(pkg.Fset, d.SuggestedFixes),
				})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
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
	return findings, nil
}

// resolveFixes turns position-based suggested fixes into offset-based
// ones, dropping any fix with an invalid or reversed range.
func resolveFixes(fset *token.FileSet, fixes []SuggestedFix) []Fix {
	var out []Fix
	for _, sf := range fixes {
		fix := Fix{Message: sf.Message}
		ok := true
		for _, te := range sf.TextEdits {
			start, end := fset.Position(te.Pos), fset.Position(te.End)
			if !start.IsValid() || !end.IsValid() ||
				start.Filename != end.Filename || end.Offset < start.Offset {
				ok = false
				break
			}
			fix.Edits = append(fix.Edits, Edit{
				File:    start.Filename,
				Start:   start.Offset,
				End:     end.Offset,
				NewText: te.NewText,
			})
		}
		if ok && len(fix.Edits) > 0 {
			out = append(out, fix)
		}
	}
	return out
}
