package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/node"
)

// TestFiguresMatchGolden pins every figure table byte for byte. After a
// deliberate model change, regenerate the golden with
//
//	go run ./cmd/repro > cmd/repro/testdata/figures.golden
func TestFiguresMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("figure output differs from the golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("figure output has %d lines, the golden %d", len(gl), len(wl))
	}
}

func TestParseResolvesSharedFlags(t *testing.T) {
	o, err := parseFlags([]string{
		"-quick", "-policy", "adaptive", "-stats", "-faults", "seed=7,hugecap=8", "-trace", "out.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.quick || !o.stats {
		t.Fatalf("toggles not resolved: quick=%v stats=%v", o.quick, o.stats)
	}
	if o.policy != "adaptive" {
		t.Fatalf("policy = %q", o.policy)
	}
	if o.spec == nil || o.spec.Seed != 7 {
		t.Fatalf("spec = %+v", o.spec)
	}
	if o.col == nil || o.tracePath != "out.json" {
		t.Fatalf("trace not resolved: collector=%v path=%q", o.col != nil, o.tracePath)
	}
}

func TestParseDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.policy != "static" {
		t.Fatalf("default policy = %q, want static", o.policy)
	}
	if o.spec != nil {
		t.Fatalf("clean run should have nil spec, got %+v", o.spec)
	}
	if o.col != nil || o.stats || o.quick {
		t.Fatal("trace/stats/quick should default off")
	}
}

// TestEnvironmentSetsNoFlag pins that the flags have one way to be set:
// variables named like the flags leave the built-in defaults untouched.
func TestEnvironmentSetsNoFlag(t *testing.T) {
	t.Setenv("REPRO_FAULTS", "seed=11,hugecap=4")
	t.Setenv("REPRO_POLICY", "threshold")
	t.Setenv("REPRO_TRACE", "env.json")
	t.Setenv("REPRO_STATS", "1")
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.spec != nil || o.policy != "static" || o.col != nil || o.stats {
		t.Fatalf("environment leaked into flags: spec=%+v policy=%q trace=%q stats=%v", o.spec, o.policy, o.tracePath, o.stats)
	}
}

func TestTraceStdoutBuildsCollector(t *testing.T) {
	o, err := parseFlags([]string{"-trace", "-"})
	if err != nil {
		t.Fatal(err)
	}
	if o.col == nil {
		t.Fatal("trace collector not built")
	}
}

func TestParseRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "foo"}, `policy: unknown kind "foo"`},
		{[]string{"-faults", "bogus"}, `faults: "bogus" is not key=value`},
	} {
		if _, err := parseFlags(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestRunStatsEmitsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-stats"}); err != nil {
		t.Fatal(err)
	}
	var reports []node.Report
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("-stats output is not a JSON node.Report list: %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Tool != "repro" || rep.Workload == "" || rep.Machine == "" {
		t.Fatalf("report identity missing: %+v", rep)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("got %d node records, want 2 (one per rank)", len(rep.Nodes))
	}
	if rep.Total.Reg.Registrations == 0 {
		t.Fatalf("report total not aggregated: %+v", rep.Total)
	}
	for i, st := range rep.Nodes {
		if st.Machine == "" || st.Allocator != "huge" {
			t.Fatalf("node %d identity missing: machine=%q allocator=%q", i, st.Machine, st.Allocator)
		}
		if st.Cache.Hits+st.Cache.Misses == 0 {
			t.Fatalf("node %d: registration cache never consulted", i)
		}
		if st.Reg.Registrations == 0 {
			t.Fatalf("node %d: no registrations recorded", i)
		}
		if st.HCA.BusBytes == 0 {
			t.Fatalf("node %d: DMA engines moved no bytes", i)
		}
	}
}
