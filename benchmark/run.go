package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// options configure one workload run.
type options struct {
	seed    uint64
	seconds float64 // measurement window for the untraced passes
	trace   bool    // report per-layer metrics instead of end-to-end ones
	// probeTime is the testing benchtime of each layer probe.
	probeTime string
}

// jobResult is one executed job: its virtual time and the host cost of
// the Workload.Run call, timed by the benchmark around the call (an app
// span).
type jobResult struct {
	virt   float64 // virt_ticks
	hostNs int64
	allocB uint64
	err    error
}

// pass is one closed-loop traversal of the job list.
type pass struct {
	wall    time.Duration
	allocB  uint64
	mallocs uint64
	peakRSS int64 // bytes, the pass's resident high-water mark
	jobs    []jobResult
}

// runner executes passes and judges every job against its first
// successful pass: a job fails when Run errors or when its virtual time
// differs from that pass (the simulator is deterministic, so host-side
// work may never move virtual time).
type runner struct {
	jobs      []job
	want      []float64 // first successful virt_ticks per job; NaN until then
	attempted int
	failed    int
	errs      []string
}

func newRunner(jobs []job) *runner {
	want := make([]float64, len(jobs))
	for i := range want {
		want[i] = math.NaN()
	}
	return &runner{jobs: jobs, want: want}
}

// runJob calls the job's sweep entry point once, recording into col when
// it is non-nil.
func runJob(j job, col *trace.Collector) jobResult {
	wl, ctx, err := j.context()
	if err != nil {
		return jobResult{err: err}
	}
	ctx.Trace = col
	m0 := heapAllocated()
	t0 := time.Now() //reprolint:ignore determinism: host time of the job is what the benchmark measures; it never reaches the simulation
	ms, err := wl.Run(ctx)
	host := time.Since(t0) //reprolint:ignore determinism: see above
	m1 := heapAllocated()
	if err != nil {
		return jobResult{err: err}
	}
	virt, ok := ms["virt_ticks"]
	if !ok {
		return jobResult{err: fmt.Errorf("no virt_ticks metric")}
	}
	return jobResult{virt: virt, hostNs: host.Nanoseconds(), allocB: m1.bytes - m0.bytes}
}

// check books one job result against the job's expected virtual time.
func (r *runner) check(i int, res jobResult) {
	r.attempted++
	err := res.err
	if err == nil {
		switch {
		case math.IsNaN(r.want[i]):
			r.want[i] = res.virt
		case res.virt != r.want[i]:
			err = fmt.Errorf("virt_ticks %v, first pass %v", res.virt, r.want[i])
		}
	}
	if err != nil {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", r.jobs[i], err))
	}
}

// pass runs every job once, one at a time, and records the pass's peak
// resident set size.
func (r *runner) pass(pk *peakReader) pass {
	p := pass{jobs: make([]jobResult, len(r.jobs))}
	pk.reset()
	m0 := heapAllocated()
	t0 := time.Now() //reprolint:ignore determinism: pass wall time is the host_s metric
	for i, j := range r.jobs {
		p.jobs[i] = runJob(j, nil)
		r.check(i, p.jobs[i])
	}
	p.wall = time.Since(t0) //reprolint:ignore determinism: see above
	m1 := heapAllocated()
	p.peakRSS = pk.read()
	p.allocB, p.mallocs = m1.bytes-m0.bytes, m1.objects-m0.objects
	return p
}

// measure runs passes until the next one would end after the window; it
// always runs at least one.
func (r *runner) measure(seconds float64) ([]pass, error) {
	pk, err := openPeak()
	if err != nil {
		return nil, err
	}
	var ps []pass
	var walls []float64
	start := time.Now() //reprolint:ignore determinism: the measurement window is host time
	for {
		// Every pass starts from a collected heap, so no pass pays to
		// collect the garbage of the one before.
		runtime.GC()
		p := r.pass(pk)
		ps = append(ps, p)
		walls = append(walls, p.wall.Seconds())
		elapsed := time.Since(start).Seconds() //reprolint:ignore determinism: see above
		if elapsed+median(walls) > seconds {
			return ps, pk.close()
		}
	}
}

// measureSetup times the construction of every strategied job's world,
// as the job would build it, and discards the worlds. It repeats the
// whole set at least five times and for at least a second, and returns
// the median time of one set and the repetition count.
func measureSetup(jobs []job) (float64, int, error) {
	var cfgs []mpi.Config
	for _, j := range jobs {
		if j.strategy == "" {
			continue
		}
		_, ctx, err := j.context()
		if err != nil {
			return 0, 0, err
		}
		cfgs = append(cfgs, ctx.MPIConfig(j.ranks))
	}
	var reps []float64
	var total float64
	for len(reps) < 5 || (total < 1 && len(reps) < 200) {
		// Every set-up starts from a collected heap, so no set-up pays to
		// collect the worlds of the one before.
		runtime.GC()
		t0 := time.Now() //reprolint:ignore determinism: set-up time is host time
		for _, cfg := range cfgs {
			if _, err := mpi.NewWorld(cfg); err != nil {
				return 0, 0, fmt.Errorf("setup: %w", err)
			}
		}
		d := time.Since(t0).Seconds() //reprolint:ignore determinism: see above
		reps = append(reps, d)
		total += d
	}
	return median(reps), len(reps), nil
}

type heapCounters struct{ bytes, objects uint64 }

// heapAllocated reads the cumulative Go heap allocation counters.
func heapAllocated() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

// peakReader measures the peak resident set size of one pass: reset
// restarts the kernel's high-water mark (VmHWM) and read returns it. The
// process-wide mark would include set-up, and one rare garbage-collection
// overshoot would set it for the rest of the run, while a median of
// per-pass peaks is steady. Both go through files opened once and a fixed
// buffer, so measuring allocates nothing that alloc_mb and allocs_k would
// count. The first failure sticks in err.
type peakReader struct {
	status, clearRefs *os.File
	buf               [4096]byte
	err               error
}

// resetHWM, written to /proc/self/clear_refs, resets VmHWM to the current
// resident set size (Linux 4.0 and later).
var resetHWM = []byte("5")

func openPeak() (*peakReader, error) {
	status, err := os.Open("/proc/self/status")
	if err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	clearRefs, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		status.Close()
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	return &peakReader{status: status, clearRefs: clearRefs}, nil
}

func (p *peakReader) reset() {
	if p.err != nil {
		return
	}
	if _, err := p.clearRefs.Write(resetHWM); err != nil {
		p.err = fmt.Errorf("peak rss: reset: %w", err)
	}
}

// read returns the high-water mark in bytes, or 0 once a step failed.
func (p *peakReader) read() int64 {
	if p.err != nil {
		return 0
	}
	n, err := p.status.ReadAt(p.buf[:], 0)
	if err != nil && err != io.EOF {
		p.err = fmt.Errorf("peak rss: %w", err)
		return 0
	}
	kb, ok := statusHWM(p.buf[:n])
	if !ok {
		p.err = fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
		return 0
	}
	return kb << 10
}

// close releases the files and reports the first failure.
func (p *peakReader) close() error {
	p.status.Close() // opened read-only; nothing to flush
	if err := p.clearRefs.Close(); err != nil && p.err == nil {
		p.err = fmt.Errorf("peak rss: %w", err)
	}
	return p.err
}

// statusHWM parses the "VmHWM:  <n> kB" line of /proc/self/status
// without allocating.
func statusHWM(b []byte) (int64, bool) {
	const key = "\nVmHWM:"
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	var v int64
	j := i
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		v = v*10 + int64(b[j]-'0')
	}
	return v, j > i && bytes.HasPrefix(b[j:], []byte(" kB"))
}

// virtMS converts virtual ticks to simulated milliseconds.
func virtMS(ticks float64) float64 { return ticks / float64(simtime.Millisecond) }
