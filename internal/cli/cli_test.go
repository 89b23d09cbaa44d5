package cli

import (
	"flag"
	"io"
	"testing"
)

func newTestApp(t *testing.T, tool string, args []string) *App {
	t.Helper()
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return newWith(tool, fs, args)
}

func TestParseResolvesSharedFlags(t *testing.T) {
	app := newTestApp(t, "x", []string{
		"-policy", "adaptive", "-stats", "-faults", "seed=7,hugecap=8", "-trace", "out.json",
	})
	app.PolicyFlag().StatsFlag("usage")
	e := app.Parse()
	if e.Tool != "x" {
		t.Fatalf("tool = %q", e.Tool)
	}
	if e.Policy != "adaptive" {
		t.Fatalf("policy = %q", e.Policy)
	}
	if !e.Stats {
		t.Fatal("stats flag not resolved")
	}
	if e.Spec == nil || e.Spec.Seed != 7 {
		t.Fatalf("spec = %+v", e.Spec)
	}
	if e.Col == nil {
		t.Fatal("trace collector not built")
	}
	if e.TracePath() != "out.json" {
		t.Fatalf("trace path = %q", e.TracePath())
	}
}

func TestParseDefaults(t *testing.T) {
	app := newTestApp(t, "x", nil)
	app.PolicyFlag()
	e := app.Parse()
	if e.Policy != "static" {
		t.Fatalf("default policy = %q, want static", e.Policy)
	}
	if e.Spec != nil {
		t.Fatalf("clean run should have nil spec, got %+v", e.Spec)
	}
	if e.Col != nil || e.Stats {
		t.Fatal("trace/stats should default off")
	}
}

// TestEnvironmentSetsNoFlag pins that the shared flags have one way to
// be set: variables named like the flags leave the built-in defaults
// untouched.
func TestEnvironmentSetsNoFlag(t *testing.T) {
	t.Setenv("REPRO_FAULTS", "seed=11,hugecap=4")
	t.Setenv("REPRO_POLICY", "threshold")
	t.Setenv("REPRO_TRACE", "env.json")
	app := newTestApp(t, "x", nil)
	app.PolicyFlag()
	e := app.Parse()
	if e.Spec != nil || e.Policy != "static" || e.Col != nil {
		t.Fatalf("environment leaked into flags: spec=%+v policy=%q trace=%q", e.Spec, e.Policy, e.TracePath())
	}
}

func TestTraceMetaOmitsMachineWhenUnregistered(t *testing.T) {
	app := newTestApp(t, "x", []string{"-trace", "-"})
	e := app.Parse()
	if e.Col == nil {
		t.Fatal("trace collector not built")
	}
}
