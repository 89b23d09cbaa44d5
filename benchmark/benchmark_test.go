package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []wlEntry   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type wlEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	var wls []wlEntry
	for _, w := range workloads {
		wls = append(wls, wlEntry{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(f.Workloads, wls) {
		t.Errorf("workloads differ:\n json %v\n code %v", f.Workloads, wls)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n json %v\n code %v", f.PerLayer, perLayer())
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", f.RunSeconds, runSeconds)
	}
}

func TestNamesUnitsAndCaps(t *testing.T) {
	f := readBenchmarkFile(t)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", f.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	var setupBound, maxOther float64
	for _, m := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		} else {
			maxOther = math.Max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	for _, m := range f.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
}

// metricNames returns a result's metric names, sorted.
func metricNames(res result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func TestUntracedRunEmitsEndToEndMetrics(t *testing.T) {
	w, _ := workloadByName("paper-micro")
	res, err := runWorkload(w, options{seed: 1, seconds: 0}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != len(paperMicro(1)) {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if got, want := metricNames(res), defNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("emitted %v, want %v", got, want)
	}
	for name, v := range res.Metrics {
		if v.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, v.Value)
		}
	}
}

func TestStatusHWM(t *testing.T) {
	for _, tc := range []struct {
		status string
		kb     int64
		ok     bool
	}{
		{"Name:\tbenchmark\nVmPeak:\t  900 kB\nVmHWM:\t  153600 kB\nVmRSS:\t 7 kB\n", 153600, true},
		{"Name:\tx\nVmHWM: 12 kB", 12, true},
		{"Name:\tx\nVmHWM:\t kB\n", 0, false},
		{"Name:\tx\nVmHWM:\t 12 MB\n", 12, false},
		{"VmHWM:\t 12 kB\n", 0, false}, // never the first line
		{"", 0, false},
	} {
		kb, ok := statusHWM([]byte(tc.status))
		if ok != tc.ok || (ok && kb != tc.kb) {
			t.Errorf("statusHWM(%q) = %d, %v; want %d, %v", tc.status, kb, ok, tc.kb, tc.ok)
		}
	}
}

func TestPeakReaderSeesPassPeak(t *testing.T) {
	pk := openTestPeak(t)
	pk.reset()
	base := pk.read()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1 // touch every page
	}
	grown := pk.read()
	if grown-base < 32<<20 {
		t.Errorf("peak grew by %d bytes after touching 64 MiB", grown-base)
	}
	runtime.GC()
	debug.FreeOSMemory()
	pk.reset()
	if after := pk.read(); after >= grown {
		t.Errorf("peak %d after reset, %d before: reset did not restart the mark", after, grown)
	}
}

func TestTracedRunSharesSumTo100(t *testing.T) {
	w, _ := workloadByName("paper-micro")
	res, err := runWorkload(w, options{seed: 1, seconds: 0, trace: true, probeTime: "1x"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed %d of %d jobs", res.Failed, res.Attempted)
	}
	if got, want := metricNames(res), defNames(perLayer()); !reflect.DeepEqual(got, want) {
		t.Errorf("emitted %v, want %v", got, want)
	}
	var sum float64
	for _, l := range traceLayers {
		sum += res.Metrics["virt."+l+".self_pct"].Value
	}
	if math.Abs(sum-100) > 0.1 {
		t.Errorf("virt.*.self_pct sum to %v, want 100", sum)
	}
	if res.Metrics["virt.spans"].Value == 0 || res.Metrics["regcache.acquires"].Value == 0 {
		t.Errorf("traced pass captured nothing: %v spans", res.Metrics["virt.spans"].Value)
	}
}

// openTestPeak opens a peakReader that is closed, and its failures
// reported, when the test ends.
func openTestPeak(t *testing.T) *peakReader {
	t.Helper()
	pk, err := openPeak()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := pk.close(); err != nil {
			t.Error(err)
		}
	})
	return pk
}

func TestPaperMicroVirtIdenticalAcrossPasses(t *testing.T) {
	r := newRunner(paperMicro(1))
	pk := openTestPeak(t)
	p1, p2 := r.pass(pk), r.pass(pk)
	if r.failed != 0 {
		t.Fatalf("failures: %v", r.errs)
	}
	var v1, v2 float64
	for i := range r.jobs {
		v1 += p1.jobs[i].virt
		v2 += p2.jobs[i].virt
	}
	if v1 == 0 || v1 != v2 {
		t.Errorf("virt_ms %v then %v", virtMS(v1), virtMS(v2))
	}
}

func TestFailingJobDoesNotAbortSiblings(t *testing.T) {
	var calls atomic.Int64
	for _, w := range []sweep.Workload{
		{Name: "benchtest/fail", Primary: "virt_ticks", Run: func(sweep.RunContext) (sweep.Metrics, error) {
			return nil, errors.New("injected failure")
		}},
		// Virtual time that moves between passes is a failure too.
		{Name: "benchtest/drift", Primary: "virt_ticks", Run: func(sweep.RunContext) (sweep.Metrics, error) {
			return sweep.Metrics{"virt_ticks": float64(calls.Add(1))}, nil
		}},
	} {
		if sweep.WorkloadByName(w.Name) == nil {
			if err := sweep.Register(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := newRunner([]job{
		{experiment: "wr/sge", machine: "systemp", ranks: 1},
		{experiment: "benchtest/fail", machine: "opteron", ranks: 1},
		{experiment: "benchtest/drift", machine: "opteron", ranks: 1},
		{experiment: "wr/offset", machine: "systemp", ranks: 1},
	})
	pk := openTestPeak(t)
	p := r.pass(pk)
	if r.attempted != 4 || r.failed != 1 {
		t.Fatalf("first pass: attempted %d, failed %d", r.attempted, r.failed)
	}
	if p.jobs[0].err != nil || p.jobs[3].err != nil || p.jobs[3].virt == 0 {
		t.Errorf("siblings of the failing job did not run: %+v", p.jobs)
	}
	r.pass(pk)
	if r.attempted != 8 || r.failed != 3 {
		t.Errorf("second pass: attempted %d, failed %d, want 8 and 3 (fail + drift)", r.attempted, r.failed)
	}
	if len(r.errs) != 3 || !strings.Contains(r.errs[0], "injected failure") || !strings.Contains(r.errs[2], "first pass") {
		t.Errorf("errors: %q", r.errs)
	}
}
