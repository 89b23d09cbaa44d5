package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/node"
)

// validDoc renders a well-formed one-report document through the same
// WriteReports path cmd/repro uses, so the fixture cannot drift from
// the real emitter.
func validDoc(t *testing.T) string {
	t.Helper()
	reports := []node.Report{
		node.NewReport("repro", "sendrecv", "opteron", "", []node.Stats{
			{Machine: "opteron", Allocator: "libc"},
			{Machine: "opteron", Allocator: "libc"},
		}),
	}
	var buf bytes.Buffer
	if err := node.WriteReports(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCheckValidReport(t *testing.T) {
	reports, err := check(strings.NewReader(validDoc(t)))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if len(reports) != 1 || reports[0].Tool != "repro" {
		t.Fatalf("decoded %+v, want one repro report", reports)
	}
	if len(reports[0].Nodes) != 2 {
		t.Fatalf("decoded %d node snapshots, want 2", len(reports[0].Nodes))
	}
}

func TestCheckRejectsUnknownField(t *testing.T) {
	doc := strings.Replace(validDoc(t), `"tool"`, `"tool_v2"`, 1)
	if _, err := check(strings.NewReader(doc)); err == nil {
		t.Fatal("document with unknown field accepted")
	}
}

func TestCheckRejectsMissingToolName(t *testing.T) {
	doc := strings.Replace(validDoc(t), `"repro"`, `""`, 1)
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "missing tool name") {
		t.Fatalf("err = %v, want missing-tool-name complaint", err)
	}
}

func TestCheckRejectsMissingNodes(t *testing.T) {
	doc := `[{"tool":"repro","workload":"w","machine":"m","nodes":[],"total":{}}]`
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "no node snapshots") {
		t.Fatalf("err = %v, want no-node-snapshots complaint", err)
	}
}

func TestCheckRejectsMalformedJSON(t *testing.T) {
	for _, doc := range []string{"", "not json", `{"tool":"repro"}`, `[{"tool":`} {
		if _, err := check(strings.NewReader(doc)); err == nil {
			t.Errorf("malformed document %q accepted", doc)
		}
	}
}

func TestCheckRejectsTrailingData(t *testing.T) {
	doc := validDoc(t) + "\n[]"
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("err = %v, want trailing-data complaint", err)
	}
}

func TestCheckRejectsEmptyArray(t *testing.T) {
	_, err := check(strings.NewReader("[]"))
	if err == nil || !strings.Contains(err.Error(), "empty report array") {
		t.Fatalf("err = %v, want empty-array complaint", err)
	}
}

// render marshals reports exactly as cmd/repro would, without
// recomputing totals — so tests can serve tampered documents.
func render(t *testing.T, reports []node.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := node.WriteReports(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCheckAcceptsPolicyCounters(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "hugetlbfs",
		Policy: node.PolicyStats{Kind: "adaptive", PlaceHuge: 4, DemotedPages: 2, DemotedBytes: 2 * 2 << 20}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	if _, err := check(strings.NewReader(doc)); err != nil {
		t.Fatalf("valid policy counters rejected: %v", err)
	}
}

func TestCheckRejectsUnknownPolicyKind(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Policy: node.PolicyStats{Kind: "greedy"}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "unknown policy kind") {
		t.Fatalf("err = %v, want unknown-policy-kind complaint", err)
	}
}

func TestCheckRejectsNegativePolicyCounter(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Policy: node.PolicyStats{Kind: "static", SGEPack: -1}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v, want negative-counter complaint", err)
	}
}

func TestCheckRejectsCountersWithoutKind(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Policy: node.PolicyStats{PlaceHuge: 3}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "without a policy kind") {
		t.Fatalf("err = %v, want counters-without-kind complaint", err)
	}
}

func TestCheckRejectsDemotedBytesMismatch(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "hugetlbfs",
		Policy: node.PolicyStats{Kind: "adaptive", DemotedPages: 2, DemotedBytes: 4096}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "demoted_bytes") {
		t.Fatalf("err = %v, want demoted-bytes complaint", err)
	}
}

func TestCheckAcceptsMemtierAndColl(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "hugetlbfs",
		Memtier: node.MemtierStats{
			Fast: node.TierStat{Name: "fast", CapacityBytes: 8 << 20, UsedBytes: 4 << 20,
				PeakBytes: 6 << 20, Assigns: 10, Spills: 2, TouchTicks: 100},
			Slow:       node.TierStat{Name: "slow", UsedBytes: 24 << 20, PeakBytes: 28 << 20, Assigns: 40},
			Promotions: 3, Demotions: 1, MigratedBytes: 4 << 20, MigrateTicks: 5000},
		Coll: node.CollStats{Alltoallvs: 2, PairwiseSteps: 6,
			BytesSent: 4096, BytesRecv: 4096, LocalCopyBytes: 512}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	if _, err := check(strings.NewReader(doc)); err != nil {
		t.Fatalf("valid memtier/coll sections rejected: %v", err)
	}
}

func TestCheckRejectsMemtierUsedOverPeak(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Memtier: node.MemtierStats{
			Fast: node.TierStat{Name: "fast", UsedBytes: 8 << 20, PeakBytes: 4 << 20, Assigns: 1}}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "exceeds peak_bytes") {
		t.Fatalf("err = %v, want used-over-peak complaint", err)
	}
}

func TestCheckRejectsMemtierPeakOverCapacity(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Memtier: node.MemtierStats{
			Fast: node.TierStat{Name: "fast", CapacityBytes: 4 << 20,
				UsedBytes: 2 << 20, PeakBytes: 8 << 20, Assigns: 1}}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "exceeds capacity") {
		t.Fatalf("err = %v, want peak-over-capacity complaint", err)
	}
}

func TestCheckRejectsMemtierSpillsOverAssigns(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Memtier: node.MemtierStats{
			Slow: node.TierStat{Name: "slow", Assigns: 1, Spills: 2}}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "exceed assigns") {
		t.Fatalf("err = %v, want spills-over-assigns complaint", err)
	}
}

func TestCheckRejectsMigrationsWithoutBytes(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Memtier: node.MemtierStats{Promotions: 2}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "no migrated bytes") {
		t.Fatalf("err = %v, want migrations-without-bytes complaint", err)
	}
}

func TestCheckRejectsNegativeCollCounter(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Coll: node.CollStats{Alltoallvs: 1, BytesSent: -5}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v, want negative-counter complaint", err)
	}
}

func TestCheckRejectsCollTrafficWithoutCall(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Coll: node.CollStats{BytesSent: 4096, BytesRecv: 4096, PairwiseSteps: 3}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "without a collective call") {
		t.Fatalf("err = %v, want traffic-without-call complaint", err)
	}
}

func TestCheckRejectsNegativeTierPolicyCounter(t *testing.T) {
	ns := []node.Stats{{Machine: "opteron", Allocator: "libc",
		Policy: node.PolicyStats{Kind: "adaptive", TierMigrates: -1}}}
	doc := render(t, []node.Report{node.NewReport("repro", "w", "opteron", "", ns)})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "tier_migrates") {
		t.Fatalf("err = %v, want negative tier_migrates complaint", err)
	}
}

// A total that is not Sum(nodes) — e.g. a document produced by the old
// peak-gauge-summing aggregation — must be rejected.
func TestCheckRejectsStaleTotal(t *testing.T) {
	r := node.NewReport("repro", "w", "opteron", "", []node.Stats{
		{Machine: "opteron", Allocator: "libc", Cache: node.CacheStats{PeakPinned: 100}},
		{Machine: "opteron", Allocator: "libc", Cache: node.CacheStats{PeakPinned: 60}},
	})
	r.Total.Cache.PeakPinned = 160 // the pre-fix sum; Sum keeps the max, 100
	doc := render(t, []node.Report{r})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "not Sum(nodes)") {
		t.Fatalf("err = %v, want total-not-sum complaint", err)
	}
}
