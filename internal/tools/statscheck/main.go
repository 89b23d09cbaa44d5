// Command statscheck validates a -stats document (cmd/repro -stats)
// against the telemetry schema. It strictly decodes stdin as
// []node.Report (unknown fields are errors in both directions —
// TestReportSchemaIsClosed in internal/node guards the reverse) and
// exits non-zero on any mismatch. CI pipes the output through it so the
// emitter and the schema cannot drift apart.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/node"
)

// check validates one -stats document and returns the decoded reports.
// It enforces the full contract: strict []node.Report decoding (unknown
// fields rejected), no trailing data, a non-empty array, and per-report
// tool name and node snapshots.
func check(r io.Reader) ([]node.Report, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var reports []node.Report
	if err := dec.Decode(&reports); err != nil {
		return nil, fmt.Errorf("not valid []node.Report: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the report array")
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("empty report array")
	}
	for i, r := range reports {
		if r.Tool == "" {
			return nil, fmt.Errorf("report %d missing tool name", i)
		}
		if len(r.Nodes) == 0 {
			return nil, fmt.Errorf("report %d (%s) has no node snapshots", i, r.Tool)
		}
		for j, n := range r.Nodes {
			if err := checkPolicy(n.Policy); err != nil {
				return nil, fmt.Errorf("report %d (%s) node %d: %w", i, r.Tool, j, err)
			}
			if err := checkMemtier(n.Memtier); err != nil {
				return nil, fmt.Errorf("report %d (%s) node %d: %w", i, r.Tool, j, err)
			}
			if err := checkColl(n.Coll); err != nil {
				return nil, fmt.Errorf("report %d (%s) node %d: %w", i, r.Tool, j, err)
			}
		}
		if err := checkPolicy(r.Total.Policy); err != nil {
			return nil, fmt.Errorf("report %d (%s) total: %w", i, r.Tool, err)
		}
		if err := checkColl(r.Total.Coll); err != nil {
			return nil, fmt.Errorf("report %d (%s) total: %w", i, r.Tool, err)
		}
		// The total must be exactly what this build's Sum derives from
		// the node snapshots — a document produced by an older
		// aggregation (the pre-max peak-gauge sum) fails here.
		if want := node.Sum(r.Nodes); r.Total != want {
			return nil, fmt.Errorf("report %d (%s): total is not Sum(nodes)", i, r.Tool)
		}
	}
	return reports, nil
}

// checkPolicy validates one policy-stats section: a known kind, no
// negative counters, and no counters without an engine.
func checkPolicy(p node.PolicyStats) error {
	switch p.Kind {
	case "", "static", "threshold", "adaptive":
	default:
		return fmt.Errorf("unknown policy kind %q", p.Kind)
	}
	counters := []struct {
		name string
		v    int64
	}{
		{"place_huge", p.PlaceHuge}, {"place_small", p.PlaceSmall},
		{"cache_lazy", p.CacheLazy}, {"cache_eager", p.CacheEager},
		{"sge_gather", p.SGEGather}, {"sge_pack", p.SGEPack},
		{"windows", p.Windows}, {"demote_decisions", p.DemoteDecisions},
		{"demoted_pages", p.DemotedPages}, {"demoted_bytes", p.DemotedBytes},
		{"demote_ticks", int64(p.DemoteTicks)},
		{"tier_migrates", p.TierMigrates}, {"tier_recomputes", p.TierRecomputes},
	}
	var any bool
	for _, c := range counters {
		if c.v < 0 {
			return fmt.Errorf("policy counter %s is negative (%d)", c.name, c.v)
		}
		any = any || c.v != 0
	}
	if p.Kind == "" && any {
		return fmt.Errorf("policy counters present without a policy kind")
	}
	if p.DemotedBytes != p.DemotedPages*(2<<20) {
		return fmt.Errorf("demoted_bytes %d is not demoted_pages %d x 2 MiB", p.DemotedBytes, p.DemotedPages)
	}
	return nil
}

// checkMemtier validates one node's memory-tier section. The
// invariants are per-node only: Sum adds used bytes but maxes peaks
// across nodes, so "used <= peak" does not survive aggregation and the
// total section is covered by the Sum(nodes) equality instead.
func checkMemtier(m node.MemtierStats) error {
	for _, t := range []struct {
		name string
		s    node.TierStat
	}{{"fast", m.Fast}, {"slow", m.Slow}} {
		for _, c := range []struct {
			name string
			v    int64
		}{
			{"capacity_bytes", t.s.CapacityBytes}, {"used_bytes", t.s.UsedBytes},
			{"peak_bytes", t.s.PeakBytes}, {"assigns", t.s.Assigns},
			{"spills", t.s.Spills}, {"touch_ticks", int64(t.s.TouchTicks)},
		} {
			if c.v < 0 {
				return fmt.Errorf("memtier %s tier %s is negative (%d)", t.name, c.name, c.v)
			}
		}
		if t.s.UsedBytes > t.s.PeakBytes {
			return fmt.Errorf("memtier %s tier used_bytes %d exceeds peak_bytes %d",
				t.name, t.s.UsedBytes, t.s.PeakBytes)
		}
		if t.s.CapacityBytes > 0 && t.s.PeakBytes > t.s.CapacityBytes {
			return fmt.Errorf("memtier %s tier peak_bytes %d exceeds capacity %d",
				t.name, t.s.PeakBytes, t.s.CapacityBytes)
		}
		if t.s.Spills > t.s.Assigns {
			return fmt.Errorf("memtier %s tier spills %d exceed assigns %d",
				t.name, t.s.Spills, t.s.Assigns)
		}
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"promotions", m.Promotions}, {"demotions", m.Demotions},
		{"migrated_bytes", m.MigratedBytes}, {"migrate_ticks", int64(m.MigrateTicks)},
	} {
		if c.v < 0 {
			return fmt.Errorf("memtier %s is negative (%d)", c.name, c.v)
		}
	}
	if m.Promotions+m.Demotions > 0 && m.MigratedBytes == 0 {
		return fmt.Errorf("memtier records %d migrations but no migrated bytes",
			m.Promotions+m.Demotions)
	}
	return nil
}

// checkColl validates one collective-stats section: non-negative
// counters, and no traffic without a collective call.
func checkColl(c node.CollStats) error {
	counters := []struct {
		name string
		v    int64
	}{
		{"alltoallvs", c.Alltoallvs}, {"pairwise_steps", c.PairwiseSteps},
		{"bytes_sent", c.BytesSent}, {"bytes_recv", c.BytesRecv},
		{"local_copy_bytes", c.LocalCopyBytes},
	}
	for _, x := range counters {
		if x.v < 0 {
			return fmt.Errorf("coll counter %s is negative (%d)", x.name, x.v)
		}
	}
	if c.Alltoallvs == 0 && (c.PairwiseSteps > 0 || c.BytesSent > 0 || c.BytesRecv > 0) {
		return fmt.Errorf("coll traffic recorded without a collective call")
	}
	return nil
}

func main() {
	reports, err := check(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "statscheck: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("statscheck: ok (%d report(s), tool %q)\n", len(reports), reports[0].Tool)
}
