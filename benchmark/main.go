// Command benchmark is the repository's host-performance benchmark. It
// runs four named workloads, each a fixed list of sweep jobs (one sweep
// workload on one machine under one placement strategy and seed), as a
// closed loop through the public entry point
// sweep.WorkloadByName(name).Run. Untraced passes give the end-to-end
// metrics; a run with -trace 1 reports per-layer metrics instead: app
// spans timed around each Run call, the virtual-time layer breakdown and
// counts of a traced pass, and testing.Benchmark probes of single layer
// primitives.
//
// Usage:
//
//	benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-cpuprofile F] [-memprofile F]
//	benchmark compare PARENT_DIR CHANGE_DIR
//
// Without -workload every workload runs, one process each, in turn. The
// last line of a workload's output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
)

const (
	// probeBenchtime is each layer probe's testing benchtime.
	probeBenchtime = "100ms"
	// runSeconds is the default measurement window, BENCHMARK.json's
	// run_seconds. That file's interface invokes every run as
	// "-workload W -seed N -seconds run_seconds -trace 0|1", which is why
	// the window is a flag.
	runSeconds = 24
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, one process each)")
	seed := fs.Uint64("seed", 1, "input seed (alloc/abinit and the modern-pack seeds)")
	seconds := fs.Float64("seconds", runSeconds, "measurement window of the untraced passes, in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass and probes")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the workload to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile of the workload to `file` on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-cpuprofile F] [-memprofile F]")
		return 2
	}
	if *name == "" {
		if *cpuprofile != "" || *memprofile != "" {
			fmt.Fprintln(os.Stderr, "benchmark: -cpuprofile and -memprofile need -workload")
			return 2
		}
		return runAll(args)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traced == 1, probeTime: probeBenchtime}
	res, err := runWorkload(w, opts, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, one after the
// other, so no workload inherits another's heap; it fails if any does.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of a
// workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload runs one workload and reports end-to-end metrics, or
// per-layer ones when o.trace is set. It writes a readable report to
// out: every metric with its unit and sample count, and every failed
// job.
func runWorkload(w *workload, o options, out io.Writer) (result, error) {
	jobs := w.jobs(o.seed)
	var setup float64
	var setupReps int
	if !o.trace {
		var err error
		if setup, setupReps, err = measureSetup(jobs); err != nil {
			return result{}, err
		}
	}
	r := newRunner(jobs)
	passes, err := r.measure(o.seconds)
	if err != nil {
		return result{}, err
	}
	np := len(passes)
	fmt.Fprintf(out, "workload %s: seed %d, %d jobs per pass, %d passes in %gs window, GOMAXPROCS %d\n",
		w.name, o.seed, len(jobs), np, o.seconds, runtime.GOMAXPROCS(0))

	vals := map[string]float64{}
	notes := map[string]string{}
	defs := endToEnd
	if !o.trace {
		var walls, allocs, mallocs, rss []float64
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds())
			allocs = append(allocs, float64(p.allocB)/1e6)
			mallocs = append(mallocs, float64(p.mallocs)/1e3)
			rss = append(rss, float64(p.peakRSS)/1e6)
		}
		perPass := fmt.Sprintf("median of %d passes", np)
		vals["setup_s"], notes["setup_s"] = setup, fmt.Sprintf("median of %d set-ups of %d worlds", setupReps, countStrategied(jobs))
		vals["host_s"], notes["host_s"] = median(walls), perPass
		vals["alloc_mb"], notes["alloc_mb"] = median(allocs), perPass
		vals["allocs_k"], notes["allocs_k"] = median(mallocs), perPass
		vals["peak_rss_mb"], notes["peak_rss_mb"] = median(rss), perPass
	} else {
		defs = perLayer()
		untraced := appSpans(r, passes, vals, notes)
		if w.capture {
			t := newTally()
			host, err := r.tracedPass(t)
			if err != nil {
				return result{}, err
			}
			t.metrics(vals)
			vals["trace.overhead_pct"] = pct(host-untraced, untraced)
			notes["trace.overhead_pct"] = fmt.Sprintf("1 traced pass vs median of %d", np)
		} else {
			// An empty tally: virt.spans = 0 marks every virt.* and count
			// metric as not measured.
			newTally().metrics(vals)
			vals["trace.overhead_pct"] = 0
			notes["trace.overhead_pct"] = "no virtual capture"
		}
		if err := runProbes(maxRanks(jobs), o.probeTime, o.seed, vals); err != nil {
			return result{}, err
		}
	}

	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "  %-28s %14s %-9s %s\n", d.Name, strconv.FormatFloat(v, 'g', 6, 64), d.Unit, notes[d.Name])
	}
	fmt.Fprintf(out, "  jobs attempted %d, failed %d\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(out, "  FAIL %s\n", e)
	}
	return res, nil
}

// appSpans reports the app.* metrics (each experiment's Run calls summed
// over its jobs in a pass, median over passes) and virt_ms, and returns
// the median untraced time of a pass's Run calls. Experiments the
// workload does not run read 0.
func appSpans(r *runner, passes []pass, vals map[string]float64, notes map[string]string) float64 {
	host := map[string][]float64{}
	alloc := map[string][]float64{}
	var runs []float64
	for _, p := range passes {
		h := map[string]float64{}
		a := map[string]float64{}
		var sum float64
		for i, jr := range p.jobs {
			e := r.jobs[i].experiment
			h[e] += float64(jr.hostNs) / 1e6
			a[e] += float64(jr.allocB) / 1e6
			sum += float64(jr.hostNs) / 1e9
		}
		for _, e := range experiments {
			host[e] = append(host[e], h[e])
			alloc[e] = append(alloc[e], a[e])
		}
		runs = append(runs, sum)
	}
	perPass := fmt.Sprintf("median of %d passes", len(passes))
	for _, e := range experiments {
		vals[appMetric(e, "host_ms")], notes[appMetric(e, "host_ms")] = median(host[e]), perPass
		vals[appMetric(e, "alloc_mb")], notes[appMetric(e, "alloc_mb")] = median(alloc[e]), perPass
	}
	var virt float64
	for _, v := range r.want {
		if !math.IsNaN(v) { // NaN: the job never succeeded
			virt += v
		}
	}
	vals["virt_ms"], notes["virt_ms"] = virtMS(virt), "one pass; identical on every pass"
	return median(runs)
}

func countStrategied(jobs []job) int {
	n := 0
	for _, j := range jobs {
		if j.strategy != "" {
			n++
		}
	}
	return n
}
