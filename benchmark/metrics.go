package main

import (
	"sort"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// tables; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced passes. Bound is the share of the parent's median by which a
// metric may worsen before a change counts as a regression. The counts
// and the peak resident set keep their planned bounds. host_s cannot: on
// a shared 2-vCPU VM the host's speed drifts over minutes, whole runs
// move together, and ten runs in a row spread by up to 19 % (README.md),
// wider than the planned 10 %. setup_s, the shortest timing, has the
// widest bound, the cap of 25 %, which host_s needs too.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "allocs_k", Unit: "kobjects", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// traceLayers are the simulator's trace layers (internal/trace), the
// unit of the virtual-time breakdown.
var traceLayers = []string{"app", "mpi", "policy", "alloc", "regcache", "verbs", "hca", "vm", "phys", "tier"}

// countDefs are the per-layer counts read from a traced pass's span
// names and arguments. Each ratio has its base count beside it.
var countDefs = []metricDef{
	{Name: "regcache.acquires", Unit: "count", Better: "lower"},
	{Name: "regcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "verbs.regmr", Unit: "count", Better: "lower"},
	{Name: "verbs.deregmr", Unit: "count", Better: "lower"},
	{Name: "hca.posts", Unit: "count", Better: "lower"},
	{Name: "hca.gather_mb", Unit: "MB", Better: "lower"},
	{Name: "hca.scatter_mb", Unit: "MB", Better: "lower"},
	{Name: "hca.att_lookups", Unit: "count", Better: "lower"},
	{Name: "hca.att_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "alloc.mallocs", Unit: "count", Better: "lower"},
	{Name: "vm.map_huge", Unit: "count", Better: "lower"},
	{Name: "vm.fallbacks", Unit: "count", Better: "lower"},
	{Name: "tier.migrations", Unit: "count", Better: "lower"},
	{Name: "policy.demotes", Unit: "count", Better: "lower"},
	{Name: "mpi.retries", Unit: "count", Better: "lower"},
}

// probeDefs are the layer probes: testing.Benchmark loops over one public
// primitive each (probes.go).
var probeDefs = []metricDef{
	{Name: "sched.switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.switch_allocs", Unit: "count", Better: "lower"},
	{Name: "mpi.sendrecv_eager_us", Unit: "us", Better: "lower"},
	{Name: "mpi.sendrecv_eager_allocs", Unit: "count", Better: "lower"},
	{Name: "node.new_world_ms", Unit: "ms", Better: "lower"},
	{Name: "node.new_world_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "regcache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "regcache.miss_us", Unit: "us", Better: "lower"},
	{Name: "verbs.regmr_small_us", Unit: "us", Better: "lower"},
	{Name: "verbs.regmr_huge_us", Unit: "us", Better: "lower"},
	{Name: "hca.gather_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "hca.gather_allocs", Unit: "count", Better: "lower"},
	{Name: "hca.scatter_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "vm.translate_ns", Unit: "ns", Better: "lower"},
	{Name: "tlb.access_ns", Unit: "ns", Better: "lower"},
	{Name: "memmodel.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "memtier.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "memtier.migrate_us", Unit: "us", Better: "lower"},
	{Name: "alloc.replay_ns_per_op", Unit: "ns/op", Better: "lower"},
}

// appMetric names an app span metric: app.<experiment>.<suffix> with the
// experiment's "/" written as ".".
func appMetric(experiment, suffix string) string {
	return "app." + strings.ReplaceAll(experiment, "/", ".") + "." + suffix
}

// perLayer lists every per-layer metric in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, e := range experiments {
		out = append(out,
			metricDef{Name: appMetric(e, "host_ms"), Unit: "ms/pass", Better: "lower"},
			metricDef{Name: appMetric(e, "alloc_mb"), Unit: "MB/pass", Better: "lower"})
	}
	out = append(out,
		metricDef{Name: "virt_ms", Unit: "sim_ms", Better: "lower"},
		metricDef{Name: "virt.rank_ms", Unit: "sim_ms", Better: "lower"},
		metricDef{Name: "virt.spans", Unit: "count", Better: "lower"})
	for _, l := range traceLayers {
		better := "lower"
		if l == "app" {
			better = "higher" // the rest of the stack is overhead on the application
		}
		out = append(out, metricDef{Name: "virt." + l + ".self_pct", Unit: "%", Better: better})
	}
	out = append(out,
		metricDef{Name: "virt.idle_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "virt.mpi.wait_pct", Unit: "%", Better: "lower"})
	out = append(out, countDefs...)
	out = append(out, probeDefs...)
	out = append(out, metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"})
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here match the ones a reader computes from the raw
// run outputs. With fewer than two values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // the i/4 quantile, clamped like CPython
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
