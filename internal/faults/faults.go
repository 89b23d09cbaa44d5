// Package faults is a deterministic, seed-configured fault-injection
// layer for the simulated InfiniBand stack. It drives the simulator
// into the degraded modes the paper's design only gestures at — the
// Figure 2 "enough hugepages available?" = no branch, registration
// failure under an RLIMIT_MEMLOCK ceiling, transient work-request
// completion errors, and ATT cache loss — without ever consulting a
// wall clock: every decision is a pure function of the configured seed,
// a per-node salt, a per-stream salt, and an event counter, so two runs
// of the same workload with the same spec are bit-identical (including
// under -race; the event counters are the only mutable state and each
// stream is consulted from a single logical order per node).
//
// A Spec is parsed from the -faults command-line string shared by every
// cmd tool; an Injector is the per-node instance the layers consult.
// All Injector methods are safe on a nil receiver (no fault spec = no
// faults, no overhead beyond a nil check).
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is one parsed fault-injection configuration. The zero value
// injects nothing; a nil *Spec is the canonical "faults disabled".
//
//reprolint:nilsafe
type Spec struct {
	// Seed selects the deterministic fault pattern. Two runs with the
	// same Seed (and same workload) observe identical fault sequences.
	Seed uint64

	// HugePoolCap caps the number of free hugepages a node's pool
	// exposes at attach time (pages beyond the cap are removed up
	// front), modeling a host whose hugetlbfs pool is smaller than the
	// machine description says. 0 = uncapped.
	HugePoolCap int

	// HugeFailPeriod makes roughly every Nth hugepage allocation fail
	// with ErrOutOfHugepages even when pages are free (spurious kernel
	// refusal). 0 = never.
	HugeFailPeriod uint64

	// ShrinkPeriod/ShrinkPages permanently remove up to ShrinkPages
	// free hugepages from the pool roughly every ShrinkPeriod-th
	// hugepage allocation — the pool shrinking mid-run (another
	// consumer on the host, or the administrator resizing nr_hugepages).
	ShrinkPeriod uint64
	ShrinkPages  int

	// MemlockBytes models RLIMIT_MEMLOCK: the verbs layer rejects any
	// registration that would push a node's pinned bytes above this
	// ceiling. 0 = unlimited.
	MemlockBytes int64

	// WRErrorPeriod makes roughly every Nth reaped completion a
	// transient work-request error (retryable; the MPI layer reposts
	// with deterministic backoff in virtual time). 0 = never.
	WRErrorPeriod uint64

	// ATTEvictPeriod forcibly evicts a cached HCA address translation
	// roughly every Nth access to it (the adapter invalidating stale
	// entries under pressure), forcing a refetch across the IO bus.
	// Decisions are keyed per translation, so the schedule replays
	// bit-identically even under concurrent DMA. 0 = never.
	ATTEvictPeriod uint64
}

// ParseSpec parses a -faults flag value of the form
//
//	seed=7,hugecap=8,hugefail=40,shrink=100:2,memlock=16m,wr=50,attevict=400
//
// Keys may appear in any order; unknown keys are an error. Byte values
// accept k/m/g suffixes (powers of 1024). An empty string returns
// (nil, nil): faults disabled.
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	spec := &Spec{}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		case "hugecap":
			spec.HugePoolCap, err = parseCount(val)
		case "hugefail":
			spec.HugeFailPeriod, err = strconv.ParseUint(val, 10, 64)
		case "shrink":
			per, pages, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faults: shrink wants PERIOD:PAGES, got %q", val)
			}
			if spec.ShrinkPeriod, err = strconv.ParseUint(per, 10, 64); err == nil {
				spec.ShrinkPages, err = parseCount(pages)
			}
		case "memlock":
			spec.MemlockBytes, err = parseBytes(val)
		case "wr":
			spec.WRErrorPeriod, err = strconv.ParseUint(val, 10, 64)
		case "attevict":
			spec.ATTEvictPeriod, err = strconv.ParseUint(val, 10, 64)
		default:
			return nil, fmt.Errorf("faults: unknown key %q (want seed, hugecap, hugefail, shrink, memlock, wr, attevict)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad %s value %q: %v", key, val, err)
		}
	}
	return spec, nil
}

func parseCount(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative count %d", n)
	}
	return int(n), nil
}

func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"), strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative byte count %d", n)
	}
	return n * mult, nil
}

// String renders the spec in the canonical -faults syntax (set fields
// only, fixed order), so telemetry can echo the active configuration.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	add("seed", strconv.FormatUint(s.Seed, 10))
	if s.HugePoolCap > 0 {
		add("hugecap", strconv.Itoa(s.HugePoolCap))
	}
	if s.HugeFailPeriod > 0 {
		add("hugefail", strconv.FormatUint(s.HugeFailPeriod, 10))
	}
	if s.ShrinkPeriod > 0 {
		add("shrink", fmt.Sprintf("%d:%d", s.ShrinkPeriod, s.ShrinkPages))
	}
	if s.MemlockBytes > 0 {
		add("memlock", strconv.FormatInt(s.MemlockBytes, 10))
	}
	if s.WRErrorPeriod > 0 {
		add("wr", strconv.FormatUint(s.WRErrorPeriod, 10))
	}
	if s.ATTEvictPeriod > 0 {
		add("attevict", strconv.FormatUint(s.ATTEvictPeriod, 10))
	}
	return strings.Join(parts, ",")
}

// WRStream distinguishes the completion-error streams of concurrently
// running protocol halves. Sendrecv forks its send half onto a second
// goroutine; giving sends and receives independent event counters keeps
// the injected pattern independent of goroutine interleaving (each
// rank's send half and recv half are internally ordered).
type WRStream int

const (
	StreamWRSend WRStream = iota
	StreamWRRecv
	numWRStreams
)

// Stats counts the faults an Injector actually injected and the
// recoveries the stack reported back to it.
type Stats struct {
	HugeAllocFails int64 // injected spurious AllocHuge failures
	PoolShrinks    int64 // shrink events fired (pages removed counted by phys)
	WRErrors       int64 // injected transient completion errors
	WRRetries      int64 // completion retries performed by the MPI layer
	ATTEvictions   int64 // forced ATT cache flushes
}

// Injector is one node's fault source. Decisions are
// hash(seed, salt, stream, event#) — no wall clock, no shared state
// between nodes — so they replay identically run to run.
//
//reprolint:nilsafe
type Injector struct {
	spec *Spec
	salt uint64

	hugeN uint64
	attN  map[uint64]uint64 // per-translation access counters
	wrN   [numWRStreams]uint64
	st    Stats
}

// New builds a node's injector; salt (typically the rank number) keeps
// different nodes on different fault schedules. A nil spec returns a
// nil injector, on which every method is a no-op.
func New(spec *Spec, salt uint64) *Injector {
	if spec == nil {
		return nil
	}
	return &Injector{spec: spec, salt: salt}
}

// Spec returns the configuration behind the injector (nil if disabled).
func (in *Injector) Spec() *Spec {
	if in == nil {
		return nil
	}
	return in.spec
}

// splitmix64's finalizer: a cheap, well-mixed hash of the event index.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (in *Injector) fire(period uint64, streamSalt, n uint64) bool {
	if period == 0 {
		return false
	}
	return mix(in.spec.Seed^in.salt*0x9E3779B97F4A7C15^streamSalt)%period == mix(n)%period
}

// HugeAllocFault is consulted once per AllocHuge call. fail asks the
// pool to refuse this allocation (ErrOutOfHugepages); shrink asks it to
// permanently drop up to that many free pages first.
func (in *Injector) HugeAllocFault() (fail bool, shrink int) {
	if in == nil {
		return false, 0
	}
	n := in.hugeN
	in.hugeN++
	if in.fire(in.spec.ShrinkPeriod, 0xA11C, n) {
		in.st.PoolShrinks++
		shrink = in.spec.ShrinkPages
	}
	if in.fire(in.spec.HugeFailPeriod, 0xFA17, n) {
		in.st.HugeAllocFails++
		fail = true
	}
	return fail, shrink
}

// WRError is consulted once per reaped completion on the given stream;
// true means this completion came back as a transient error and the
// work request must be retried.
func (in *Injector) WRError(stream WRStream) bool {
	if in == nil {
		return false
	}
	n := in.wrN[stream]
	in.wrN[stream]++
	if in.fire(in.spec.WRErrorPeriod, 0xE440+uint64(stream), n) {
		in.st.WRErrors++
		return true
	}
	return false
}

// RecordWRRetry is called by the MPI layer each time it reposts a work
// request after an injected transient error.
func (in *Injector) RecordWRRetry() {
	if in == nil {
		return
	}
	in.st.WRRetries++
}

// ATTEvict is consulted once per ATT access with a key identifying the
// translation (lkey, page); true forces that cached translation out
// before the access is served. Counters are kept per key: a key's Nth
// access always gets the same verdict no matter how accesses to other
// keys interleave with it, which is what keeps the fault pattern
// deterministic while Sendrecv's two halves drive one adapter
// concurrently.
func (in *Injector) ATTEvict(key uint64) bool {
	if in == nil {
		return false
	}
	if in.attN == nil {
		in.attN = make(map[uint64]uint64)
	}
	n := in.attN[key]
	in.attN[key] = n + 1
	if in.fire(in.spec.ATTEvictPeriod, 0xA77E^mix(key), n) {
		in.st.ATTEvictions++
		return true
	}
	return false
}

// MemlockLimit returns the configured RLIMIT_MEMLOCK ceiling in bytes
// (0 = unlimited).
func (in *Injector) MemlockLimit() int64 {
	if in == nil || in.spec == nil {
		return 0
	}
	return in.spec.MemlockBytes
}

// HugePoolCap returns the configured pool cap (0 = uncapped).
func (in *Injector) HugePoolCap() int {
	if in == nil || in.spec == nil {
		return 0
	}
	return in.spec.HugePoolCap
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.st
}
