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

// TestEnvProvidesDefaults pins the environment half of the plumbing:
// with no flags given, REPRO_FAULTS / REPRO_POLICY / REPRO_TRACE
// become the resolved configuration.
func TestEnvProvidesDefaults(t *testing.T) {
	t.Setenv("REPRO_FAULTS", "seed=11,hugecap=4")
	t.Setenv("REPRO_POLICY", "threshold")
	t.Setenv("REPRO_TRACE", "env.json")
	app := newTestApp(t, "x", nil)
	app.PolicyFlag()
	e := app.Parse()
	if e.Spec == nil || e.Spec.Seed != 11 {
		t.Fatalf("REPRO_FAULTS not applied: spec = %+v", e.Spec)
	}
	if e.Policy != "threshold" {
		t.Fatalf("REPRO_POLICY not applied: policy = %q", e.Policy)
	}
	if e.TracePath() != "env.json" || e.Col == nil {
		t.Fatalf("REPRO_TRACE not applied: path = %q", e.TracePath())
	}
}

// TestFlagBeatsEnv pins the precedence order: an explicit flag wins
// over the environment for every shared flag.
func TestFlagBeatsEnv(t *testing.T) {
	t.Setenv("REPRO_FAULTS", "seed=11")
	t.Setenv("REPRO_POLICY", "threshold")
	app := newTestApp(t, "x", []string{"-faults", "seed=99", "-policy", "adaptive"})
	app.PolicyFlag()
	e := app.Parse()
	if e.Spec == nil || e.Spec.Seed != 99 {
		t.Fatalf("flag did not beat REPRO_FAULTS: spec = %+v", e.Spec)
	}
	if e.Policy != "adaptive" {
		t.Fatalf("flag did not beat REPRO_POLICY: policy = %q", e.Policy)
	}
}

func TestEnvDefaultFallsBack(t *testing.T) {
	t.Setenv("REPRO_UNSET_PROBE", "")
	if got := EnvDefault("UNSET_PROBE", "fallback"); got != "fallback" {
		t.Fatalf("EnvDefault = %q, want fallback", got)
	}
	t.Setenv("REPRO_SET_PROBE", "value")
	if got := EnvDefault("SET_PROBE", "fallback"); got != "value" {
		t.Fatalf("EnvDefault = %q, want value", got)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"4096", 4096, true},
		{"64k", 64 << 10, true},
		{"256M", 256 << 20, true},
		{"2g", 2 << 30, true},
		{"", 0, false},
		{"-1", 0, false},
		{"12q", 0, false},
		{"lots", 0, false},
		{"9999999999g", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestTraceMetaOmitsMachineWhenUnregistered(t *testing.T) {
	app := newTestApp(t, "x", []string{"-trace", "-"})
	e := app.Parse()
	if e.Col == nil {
		t.Fatal("trace collector not built")
	}
}
