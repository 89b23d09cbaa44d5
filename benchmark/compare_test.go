package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) from CPython.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{10.2, 9.9, 10.0, 10.4, 10.1}, 9.95, 10.3},
	} {
		q1, q3 := quartiles(tc.xs)
		if !approx(q1, tc.q1) || !approx(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func approx(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// series returns n values around base, alternating ±jitter·base.
func series(n int, base, jitter float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		d := jitter * base * float64(i%3-1)
		xs[i] = base + d
	}
	return xs
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"same", series(10, 10, 0.01), series(10, 10, 0.01), "lower", 0.1, unchanged},
		{"faster on every pair", series(10, 10, 0.01), series(10, 8, 0.01), "lower", 0.1, improved},
		{"higher is better", series(10, 10, 0.01), series(10, 12, 0.01), "higher", 0.1, improved},
		{"too few pairs for a gain", series(9, 10, 0.01), series(9, 9.5, 0.01), "lower", 0.1, unchanged},
		{"slower beyond bound", series(10, 10, 0.01), series(10, 12, 0.01), "lower", 0.1, regressed},
		{"slower within bound", series(10, 10, 0.01), series(10, 10.5, 0.01), "lower", 0.1, unchanged},
		{"parent spread wider than bound", series(10, 10, 0.2), series(10, 10.5, 0.01), "lower", 0.1, unresolved},
		{"noisy parent, slower beyond bound", series(10, 10, 0.2), series(10, 12, 0.01), "lower", 0.1, regressed},
		{"noisy parent, clear gain", series(10, 10, 0.2), series(10, 3, 0.01), "lower", 0.1, improved},
		{"noisy parent, every change run better", series(10, 10, 0.2), series(10, 7, 0.01), "lower", 0.1, unchanged},
		{"no runs", nil, series(3, 10, 0), "lower", 0.1, unresolved},
	} {
		if got := judge(tc.parent, tc.change, tc.better, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// writeRuns writes n synthetic run outputs of one workload into dir.
func writeRuns(t *testing.T, dir, wl string, n int, hostS float64, failed int) {
	t.Helper()
	for i := 0; i < n; i++ {
		res := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]value{}}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{Value: 1 + 0.001*float64(i%2), Unit: d.Unit}
		}
		res.Metrics["host_s"] = value{Value: hostS * (1 + 0.001*float64(i%3)), Unit: "s"}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("workload %s: seed %d, 14 jobs per pass\n  host_s ...\n%s\n", wl, i+1, line)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.%02d.out", wl, i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareRunSets(t *testing.T) {
	parent, change := t.TempDir(), t.TempDir()
	writeRuns(t, parent, "paper-micro", 10, 1.0, 0)
	writeRuns(t, change, "paper-micro", 10, 0.8, 0)
	writeRuns(t, parent, "scale-1024", 10, 5.0, 0)
	writeRuns(t, change, "scale-1024", 10, 5.0, 2)
	if err := os.WriteFile(filepath.Join(parent, "paper-micro.00.err"), []byte("not a run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := compareMain([]string{parent, change}, &out); code != 1 {
		t.Errorf("exit code %d, want 1 (scale-1024 failures regressed)", code)
	}
	p, err := loadRuns(parent)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadRuns(change)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range compareRuns(p, c) {
		got[r.workload+" "+r.metric] = r.verdict
	}
	want := map[string]string{
		"paper-micro host_s":    improved,
		"paper-micro setup_s":   unchanged,
		"paper-micro fail_frac": unchanged,
		"scale-1024 host_s":     unchanged,
		"scale-1024 fail_frac":  regressed,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s\n%s", k, got[k], v, out.String())
		}
	}
	if n := len(got); n != 2*(len(endToEnd)+1) {
		t.Errorf("%d rows, want %d", n, 2*(len(endToEnd)+1))
	}
}

func TestCompareRejectsMalformedRuns(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.out"), []byte("workload x: seed 1\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{dir, dir}, io.Discard); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if code := compareMain([]string{dir}, io.Discard); code != 2 {
		t.Errorf("usage error exit code %d, want 2", code)
	}
}
