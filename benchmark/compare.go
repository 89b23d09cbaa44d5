package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// run is one parsed benchmark output.
type run struct {
	workload string
	res      result
}

// parseRun reads one workload run's standard output: the "workload NAME:"
// header line and the result object on the last line.
func parseRun(data []byte) (run, error) {
	var r run
	var last string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "workload "); ok && r.workload == "" {
			r.workload, _, _ = strings.Cut(rest, ":")
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return run{}, err
	}
	if r.workload == "" {
		return run{}, errors.New("no workload header line")
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return run{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// loadRuns parses every *.out file in dir, in file-name order, grouped by
// workload; other files, such as saved standard error, are skipped.
func loadRuns(dir string) (map[string][]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]run{}
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() || filepath.Ext(e.Name()) != ".out" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r, err := parseRun(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.workload] = append(out[r.workload], r)
	}
	return out, nil
}

// Verdicts of compare.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is the least number of parent/change pairs a gain rests on.
const minPairs = 10

// judgement is the comparison of one metric on one workload.
type judgement struct {
	pairs, wins        int
	parentMed          float64
	parentQ1, parentQ3 float64
	changeMed          float64
	changeQ1, changeQ3 float64
	verdict            string
}

// judge applies the benchmark's rule to one metric. Runs pair up in
// order. The change improved the metric when it wins at least nine tenths
// of at least minPairs pairs (ties count for neither side) and the
// medians differ by more than the parent's interquartile range. It
// regressed when its median is worse than the parent's by more than
// bound times the parent's median. Otherwise, when the parent's own
// spread is wider than the bound, the runs cannot show the change is
// within the bound, and the verdict is unresolved unless every change
// run beats every parent run.
func judge(parent, change []float64, better string, bound float64) judgement {
	j := judgement{pairs: min(len(parent), len(change))}
	if j.pairs == 0 {
		j.verdict = unresolved
		return j
	}
	lower := better == "lower"
	isBetter := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	for i := 0; i < j.pairs; i++ {
		if isBetter(change[i], parent[i]) {
			j.wins++
		}
	}
	j.parentMed, j.changeMed = median(parent), median(change)
	j.parentQ1, j.parentQ3 = quartiles(parent)
	j.changeQ1, j.changeQ3 = quartiles(change)
	iqr := j.parentQ3 - j.parentQ1
	if j.pairs >= minPairs && j.wins*10 >= 9*j.pairs &&
		isBetter(j.changeMed, j.parentMed) && math.Abs(j.changeMed-j.parentMed) > iqr {
		j.verdict = improved
		return j
	}
	worstChange, bestParent := change[0], parent[0]
	for _, v := range change {
		if isBetter(worstChange, v) {
			worstChange = v
		}
	}
	for _, v := range parent {
		if isBetter(v, bestParent) {
			bestParent = v
		}
	}
	allBetter := isBetter(worstChange, bestParent)
	scale := math.Abs(j.parentMed)
	worse := j.changeMed - j.parentMed
	if !lower {
		worse = -worse
	}
	switch {
	case worse > bound*scale:
		j.verdict = regressed
	case iqr > bound*scale && !allBetter:
		j.verdict = unresolved
	default:
		j.verdict = unchanged
	}
	return j
}

// failFrac is the compared share of failed jobs; any increase regresses.
const failFrac = "fail_frac"

// compareMain implements "benchmark compare PARENT_DIR CHANGE_DIR". It
// prints one row per (workload, end-to-end metric) present in both sets,
// plus fail_frac, and exits 1 when any row regressed.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: usage: benchmark compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	parent, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	change, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	rows := compareRuns(parent, change)
	fmt.Fprintf(out, "%-12s %-12s %-38s %-38s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	code := 0
	for _, r := range rows {
		j := r.judgement
		fmt.Fprintf(out, "%-12s %-12s %-38s %-38s %6s  %s\n", r.workload, r.metric,
			fmt.Sprintf("%.6g [%.6g, %.6g]", j.parentMed, j.parentQ1, j.parentQ3),
			fmt.Sprintf("%.6g [%.6g, %.6g]", j.changeMed, j.changeQ1, j.changeQ3),
			fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
		if j.verdict == regressed {
			code = 1
		}
	}
	return code
}

type row struct {
	workload, metric string
	judgement
}

// compareRuns judges every end-to-end metric and the failure share of
// every workload both sets ran, in workload then metric order.
func compareRuns(parent, change map[string][]run) []row {
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []row
	for _, name := range names {
		p, c := parent[name], change[name]
		for _, d := range endToEnd {
			pv, cv := metricValues(p, d.Name), metricValues(c, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			rows = append(rows, row{workload: name, metric: d.Name, judgement: judge(pv, cv, d.Better, d.Bound)})
		}
		pf, cf := failShare(p), failShare(c)
		j := judgement{pairs: min(len(p), len(c)), parentMed: pf, parentQ1: pf, parentQ3: pf, changeMed: cf, changeQ1: cf, changeQ3: cf, verdict: unchanged}
		switch {
		case cf > pf:
			j.verdict = regressed
		case cf < pf:
			j.verdict = improved
		}
		rows = append(rows, row{workload: name, metric: failFrac, judgement: j})
	}
	return rows
}

func metricValues(runs []run, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.res.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// failShare is failed jobs over attempted jobs across all runs.
func failShare(runs []run) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.res.Failed
		attempted += r.res.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
