package taint_test

import (
	"fmt"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/taint"
)

// fixtureConfig marks t.source as the source and t.sink as the sink.
func fixtureConfig() *taint.Config {
	return &taint.Config{
		SourceCall: func(fn *types.Func) (string, bool) {
			if fn.Name() == "source" && fn.Pkg() != nil && fn.Pkg().Path() == "t" {
				return "fixture source", true
			}
			return "", false
		},
		SinkCall: func(fn *types.Func) (string, bool) {
			if fn.Name() == "sink" && fn.Pkg() != nil && fn.Pkg().Path() == "t" {
				return "fixture sink", true
			}
			return "", false
		},
	}
}

func analyzeFixture(t *testing.T) []taint.Flow {
	t.Helper()
	pkgs, err := analysis.NewLoader("testdata/src", "").Load()
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return taint.Analyze(callgraph.Build(pkgs), pkgs, fixtureConfig())
}

// render compresses a flow to "sourceLine->sinkLine" for comparison.
func render(flows []taint.Flow) []string {
	var out []string
	for _, f := range flows {
		out = append(out, fmt.Sprintf("%d->%d", f.SourcePosition.Line, f.SinkPosition.Line))
	}
	return out
}

// Fixture line anatomy (keep in sync with testdata/src/t/t.go):
//
//	14 x := source()      15 sink(x)          — direct
//	21 v := source()      27 sink(launder())  — viaHelper
//	33 sink(v)            39 forward(source())— viaParam (sink inside forward)
//	45 suppressed source  46 sink(x)          — must NOT flow
//	59 sink(x)            60 x = source()     — loop-carried
func TestFlows(t *testing.T) {
	flows := analyzeFixture(t)
	got := render(flows)
	want := []string{
		"14->15", // direct
		"21->27", // laundered through helper return
		"39->33", // param flow: source at the call, sink inside forward
		"60->59", // loop-carried: taint from iteration N reaches sink at N+1
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("flows = %v, want %v\nfull: %v", got, want, flows)
	}
}

// TestSuppression proves the ignore directive kills the flow at the
// source: sink(x) in suppressed() must not appear.
func TestSuppression(t *testing.T) {
	for _, f := range analyzeFixture(t) {
		if f.SinkPosition.Line == 46 {
			t.Fatalf("suppressed source still flowed: %v", f)
		}
	}
}

// TestDeterministic runs the engine twice over independent loads and
// requires identical rendered flows.
func TestDeterministic(t *testing.T) {
	a := strings.Join(render(analyzeFixture(t)), ",")
	b := strings.Join(render(analyzeFixture(t)), ",")
	if a != b {
		t.Fatalf("two runs disagree: %q vs %q", a, b)
	}
}

// TestFlowString checks the diagnostic rendering carries the base name
// and line of the source.
func TestFlowString(t *testing.T) {
	flows := analyzeFixture(t)
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	s := flows[0].String()
	if !strings.Contains(s, "t.go:14") || !strings.Contains(s, "fixture sink") {
		t.Fatalf("flow rendering %q missing source position or sink description", s)
	}
}
