package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/nas"
	"repro/internal/node"
)

// TestFiguresMatchGolden pins every figure table byte for byte, then
// checks the paper's Figure 6 and Section 5.2 claims (fig6Claims) on the
// rows that same run printed. After a deliberate model change, regenerate
// the golden with
//
//	go run ./cmd/repro > cmd/repro/testdata/figures.golden
//
// A regenerated golden that bends a paper claim still fails, naming that
// claim's quote.
func TestFiguresMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig6, err := figures(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		if i < len(gl) && i < len(wl) {
			t.Errorf("figure output differs from the golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
		} else {
			t.Errorf("figure output has %d lines, the golden %d", len(gl), len(wl))
		}
	}
	for _, c := range fig6Claims {
		byName := map[string]nas.Fig6Row{}
		for _, row := range fig6[c.machine] {
			byName[row.Kernel] = row
		}
		best := math.Inf(-1)
		for _, k := range c.kernels {
			row, ok := byName[k]
			if !ok {
				t.Fatalf("%s: no Figure 6 row for %s", c.machine, k)
			}
			v := reflect.ValueOf(row).FieldByName(c.field).Float()
			if !c.best && !(c.lo < v && v < c.hi) {
				t.Errorf("%q: %s %s %s = %.2f, want in (%g, %g)", c.quote, c.machine, k, c.field, v, c.lo, c.hi)
			}
			best = math.Max(best, v)
		}
		if c.best && !(c.lo < best && best < c.hi) {
			t.Errorf("%q: %s best %s over %v = %.2f, want in (%g, %g)", c.quote, c.machine, c.field, c.kernels, best, c.lo, c.hi)
		}
	}
}

// fig6Claim is one quantitative claim about Figure 6: on machine, field of
// every listed kernel's row (or, when best is set, their maximum) lies in
// the open band (lo, hi). quote is the paper's sentence the claim rests
// on, or, in brackets, the reading of Figure 6's bars it pins.
type fig6Claim struct {
	quote   string
	machine string
	kernels []string
	field   string
	best    bool
	lo, hi  float64
}

const (
	commQuote    = "Except for MG and IS, all benchmarks show communication performance benefits of more than 8 %"
	overallQuote = "Overall, all benchmarks benefited from using hugepages - except for IS"
	tlbQuote     = "TLB misses increased dramatically with hugepages (up to eight times with EP) except for LU"
)

var (
	opteron, systemP = machine.Opteron().Name, machine.SystemP().Name
	inf              = math.Inf(1)
)

// fig6Claims holds every Figure 6 claim on the Opteron, the system the
// paper instrumented with PAPI, and the communication and overall claims
// on System p, whose larger TLB files soften the hugepage penalty so that
// every kernel gains overall there.
var fig6Claims = []fig6Claim{
	{commQuote, opteron, []string{"cg", "ep", "lu"}, "CommImprove", false, 8, inf},
	{commQuote, opteron, []string{"mg", "is"}, "CommImprove", false, 0, 8},
	{overallQuote, opteron, []string{"cg", "ep", "lu", "mg"}, "OverallImprove", false, 0, inf},
	{overallQuote, opteron, []string{"is"}, "OverallImprove", false, -inf, 0},
	{"The results show time improvements of more than 10 %",
		opteron, []string{"cg", "ep", "is", "lu", "mg"}, "OverallImprove", true, 10, inf},
	{tlbQuote, opteron, []string{"ep"}, "TLBMissRatio", false, 5, 10},
	{tlbQuote, opteron, []string{"cg", "is"}, "TLBMissRatio", false, 1, inf},
	{tlbQuote, opteron, []string{"lu"}, "TLBMissRatio", false, -inf, 1.1},
	{"the improvement must be somewhere else. Maybe, the memory prefetching unit can benefit from larger physical contiguous areas",
		opteron, []string{"ep"}, "OtherImprove", false, 0, inf},
	{"[IS's other (computation) bar is negative]", opteron, []string{"is"}, "OtherImprove", false, -inf, 0},
	{commQuote, systemP, []string{"cg", "ep", "lu"}, "CommImprove", false, 8, inf},
	{commQuote, systemP, []string{"mg", "is"}, "CommImprove", false, -inf, 8},
	{"[every kernel gains overall on System p]",
		systemP, []string{"cg", "ep", "is", "lu", "mg"}, "OverallImprove", false, 0, inf},
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
