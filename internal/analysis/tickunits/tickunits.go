// Package tickunits enforces the unit discipline around
// internal/simtime.Ticks. Virtual time runs on a 512 MHz tick base, so
// a nanosecond is SUB-tick: the naive constant `Ticks(TickHz/1e9)` is
// zero, and any code that treats a nanosecond count as a tick count (or
// vice versa) silently drops or inflates every duration it touches —
// the exact bug class simtime avoided by refusing to define a
// Nanosecond constant. The conversions that round correctly are
// simtime.FromNanos/FromMicros/FromDuration and Ticks.Nanos/Micros/
// Duration; this analyzer makes every other crossing a diagnostic:
//
//   - Ticks(d) where d is a time.Duration — nanoseconds reinterpreted
//     as ticks, off by the tick rate. Use simtime.FromDuration.
//   - Ticks(d.Nanoseconds()), Ticks(d.Microseconds()), ... — same bug
//     through an integer detour. Use simtime.FromNanos/FromMicros.
//   - time.Duration(t) where t is Ticks — ticks reinterpreted as
//     nanoseconds. Use time.Duration(t.Nanos()).
//   - a Ticks-typed constant whose initializer divides to zero — the
//     sub-tick truncation that motivated the missing Nanosecond
//     constant, now statically impossible to reintroduce.
//
// Scalar conversions like Ticks(n) for plain counts stay legal: ticks
// are an integer unit and arithmetic on them is the normal currency of
// the simulator. Only crossings to and from the nanosecond world are
// flagged. The simtime package itself is exempt — it owns the
// conversions.
package tickunits

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "tickunits",
	Doc: "forbid unit-crossing between simtime.Ticks and the nanosecond world except through " +
		"FromNanos/FromMicros/FromDuration and Nanos/Micros/Duration; " +
		"at 512 MHz a nanosecond is sub-tick and naive conversions truncate",
	Run: run,
}

// isTicks reports whether t (after unaliasing) is the simtime Ticks
// type — matched by name and package base so fixture stubs qualify.
func isTicks(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Ticks" && obj.Pkg() != nil &&
		path.Base(obj.Pkg().Path()) == "simtime"
}

// isDuration reports whether t is time.Duration.
func isDuration(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Duration" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "time"
}

// durationUnitMethods are the time.Duration accessors that read the
// duration as a bare integer or float count — the values that must not
// be fed to a Ticks conversion.
var durationUnitMethods = map[string]string{
	"Nanoseconds":  "FromNanos",
	"Microseconds": "FromMicros",
	"Milliseconds": "FromNanos",
	"Seconds":      "FromNanos",
	"Minutes":      "FromNanos",
	"Hours":        "FromNanos",
}

func run(pass *analysis.Pass) (any, error) {
	if path.Base(pass.Pkg.Path()) == "simtime" {
		// simtime owns the conversions; its From*/Nanos bodies are the
		// one sanctioned crossing point.
		return nil, nil
	}
	for _, file := range pass.Files {
		ignored := analysis.IgnoredLines(pass.Fset, file)
		report := func(pos token.Pos, format string, args ...any) {
			if !ignored[pass.Fset.Position(pos).Line] {
				pass.Reportf(pos, format, args...)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkConversion(pass, report, x)
			case *ast.GenDecl:
				checkConstDecl(pass, report, x)
			}
			return true
		})
	}
	return nil, nil
}

type reporter func(pos token.Pos, format string, args ...any)

// conversionTarget returns the type a single-argument call converts to,
// or nil when the call is a real function call.
func conversionTarget(pass *analysis.Pass, call *ast.CallExpr) types.Type {
	if len(call.Args) != 1 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil
	}
	return tv.Type
}

func checkConversion(pass *analysis.Pass, report reporter, call *ast.CallExpr) {
	target := conversionTarget(pass, call)
	if target == nil {
		return
	}
	arg := ast.Unparen(call.Args[0])
	argType := pass.TypesInfo.TypeOf(arg)
	switch {
	case isTicks(target):
		if argType != nil && isDuration(argType) {
			report(call.Pos(), "Ticks(time.Duration) reinterprets nanoseconds as ticks "+
				"(off by the 512 MHz tick rate); use simtime.FromDuration")
			return
		}
		// Ticks(d.Nanoseconds()) and friends: the same crossing through
		// an integer detour.
		if inner, ok := arg.(*ast.CallExpr); ok {
			if sel, ok := inner.Fun.(*ast.SelectorExpr); ok {
				recv := pass.TypesInfo.TypeOf(sel.X)
				if recv != nil && isDuration(recv) {
					if fix, ok := durationUnitMethods[sel.Sel.Name]; ok {
						report(call.Pos(), "Ticks(Duration.%s()) treats a unit count as ticks; "+
							"use simtime.%s (or FromDuration)", sel.Sel.Name, fix)
						return
					}
				}
			}
		}
	case isDuration(target):
		if argType != nil && isTicks(argType) {
			report(call.Pos(), "time.Duration(Ticks) reinterprets ticks as nanoseconds; "+
				"use time.Duration(t.Nanos())")
		}
	}
}

// checkConstDecl flags Ticks-typed constants whose division initializer
// truncated to zero — the sub-tick constant bug.
func checkConstDecl(pass *analysis.Pass, report reporter, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
			if !ok || !isTicks(obj.Type()) {
				continue
			}
			div, ok := ast.Unparen(vs.Values[i]).(*ast.BinaryExpr)
			if !ok || div.Op.String() != "/" {
				continue
			}
			if constant.Sign(obj.Val()) == 0 {
				num := pass.TypesInfo.Types[div.X]
				if num.Value != nil && constant.Sign(num.Value) != 0 {
					report(name.Pos(), "Ticks constant %s divides to zero: the unit is sub-tick "+
						"at 512 MHz, so this constant silently drops every duration it scales; "+
						"use simtime.FromNanos at the use sites instead", name.Name)
				}
			}
		}
	}
}
