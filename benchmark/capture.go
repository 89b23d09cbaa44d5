package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// waitLayer relabels mpi spans named *.wait so that the existing
// self-time sweep (trace.Data.Breakdowns) splits mpi self time into
// waiting and the rest. "mpi.wait" sorts next to "mpi" against every
// other layer, so the relabelling moves no time between layers.
const waitLayer = "mpi.wait"

// tally accumulates the virtual-time breakdown and the span and event
// counts of a traced pass, one job's trace at a time.
type tally struct {
	self  map[string]simtime.Ticks // per layer, plus waitLayer
	idle  simtime.Ticks
	spans int
	n     map[string]float64 // raw counts and byte sums by key
}

func newTally() *tally {
	return &tally{self: map[string]simtime.Ticks{}, n: map[string]float64{}}
}

// add folds one job's parsed trace into the tally.
func (t *tally) add(d *trace.Data) {
	t.spans += len(d.Spans)
	for i := range d.Spans {
		s := &d.Spans[i]
		switch s.Layer + "/" + s.Name {
		case "regcache/acquire":
			t.n["acquires"]++
			t.n["acquire_hits"] += float64(s.Args["hit"])
		case "verbs/RegMR":
			t.n["regmr"]++
		case "verbs/DeregMR":
			t.n["deregmr"]++
		case "hca/post", "hca/wr.post":
			t.n["posts"]++
		case "hca/dma.gather", "hca/dma.scatter":
			t.n[s.Name+"_bytes"] += float64(s.Args["bytes"])
			t.n["att_hits"] += float64(s.Args["att_hit"])
			t.n["att_lookups"] += float64(s.Args["att_hit"] + s.Args["att_miss"])
		case "alloc/malloc":
			t.n["mallocs"]++
		case "mpi/wr.retry":
			t.n["retries"]++
		}
		if s.Layer == "mpi" && strings.HasSuffix(s.Name, ".wait") {
			s.Layer = waitLayer
		}
	}
	for _, e := range d.Events {
		switch e.Layer + "/" + e.Name {
		case "vm/map.huge":
			t.n["map_huge"]++
		case "vm/map.fallback":
			t.n["fallbacks"]++
		case "tier/migrate":
			t.n["migrations"]++
		case "policy/demote":
			t.n["demotes"]++
		}
	}
	for _, b := range d.Breakdowns() {
		for l, v := range b.Self {
			t.self[l] += v
		}
		t.idle += b.Idle
	}
}

// metrics renders the tally as the virt.* and count per-layer metrics.
// The layer shares are of busy (non-idle) main-track time, so they sum
// to 100; virt.idle_pct is idle time's share of all rank time, whose
// total virt.rank_ms gives as the base.
func (t *tally) metrics(vals map[string]float64) {
	var busy simtime.Ticks
	for _, l := range traceLayers {
		busy += t.self[l]
	}
	busy += t.self[waitLayer]
	mpi := t.self["mpi"] + t.self[waitLayer]
	for _, l := range traceLayers {
		v := t.self[l]
		if l == "mpi" {
			v = mpi
		}
		vals["virt."+l+".self_pct"] = pct(float64(v), float64(busy))
	}
	vals["virt.idle_pct"] = pct(float64(t.idle), float64(busy+t.idle))
	vals["virt.mpi.wait_pct"] = pct(float64(t.self[waitLayer]), float64(mpi))
	vals["virt.rank_ms"] = virtMS(float64(busy + t.idle))
	vals["virt.spans"] = float64(t.spans)

	vals["regcache.acquires"] = t.n["acquires"]
	vals["regcache.hit_ratio"] = ratio(t.n["acquire_hits"], t.n["acquires"])
	vals["verbs.regmr"] = t.n["regmr"]
	vals["verbs.deregmr"] = t.n["deregmr"]
	vals["hca.posts"] = t.n["posts"]
	vals["hca.gather_mb"] = t.n["dma.gather_bytes"] / 1e6
	vals["hca.scatter_mb"] = t.n["dma.scatter_bytes"] / 1e6
	vals["hca.att_lookups"] = t.n["att_lookups"]
	vals["hca.att_hit_ratio"] = ratio(t.n["att_hits"], t.n["att_lookups"])
	vals["alloc.mallocs"] = t.n["mallocs"]
	vals["vm.map_huge"] = t.n["map_huge"]
	vals["vm.fallbacks"] = t.n["fallbacks"]
	vals["tier.migrations"] = t.n["migrations"]
	vals["policy.demotes"] = t.n["demotes"]
	vals["mpi.retries"] = t.n["retries"]
}

// tracedPass runs every job once more with a fresh collector each, so
// only one job's spans are held at a time, and folds each trace into t.
// Each job is checked against its untraced virtual time. It returns the
// summed host time of the traced Run calls.
func (r *runner) tracedPass(t *tally) (float64, error) {
	var host float64
	for i, j := range r.jobs {
		col := trace.NewCollector()
		res := runJob(j, col)
		r.check(i, res)
		if res.err != nil {
			continue
		}
		host += float64(res.hostNs) / 1e9
		var buf bytes.Buffer
		if err := col.WritePerfetto(&buf); err != nil {
			return 0, fmt.Errorf("%s: write trace: %w", j, err)
		}
		d, err := trace.ParsePerfetto(&buf)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", j, err)
		}
		t.add(d)
	}
	return host, nil
}

// pct is 100·part/whole, or 0 for an empty whole.
func pct(part, whole float64) float64 { return 100 * ratio(part, whole) }

// ratio is part/whole, or 0 for an empty whole.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
