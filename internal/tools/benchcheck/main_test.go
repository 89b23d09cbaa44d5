package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// validDoc renders a well-formed BENCH document through the same
// Execute/Write path sweeprun uses, so the fixture cannot drift from the
// real emitter. The grid is the cheapest meaningful one: a single
// strategied workload, two strategies, two seeds.
var validDoc = sync.OnceValue(func() string {
	g := sweep.Grid{
		Name:       "fixture",
		Machines:   []string{"opteron"},
		Workloads:  []string{"alloc/abinit"},
		Strategies: []string{"small-lazy", "huge-lazy"},
		Seeds:      []uint64{1, 2},
	}
	b, runErrs, err := sweep.Execute(g, 2)
	if err != nil || len(runErrs) != 0 {
		panic("fixture grid failed")
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		panic(err)
	}
	return buf.String()
})

// mutate round-trips the valid document through Load-without-Validate so
// a test can break one invariant and re-render.
func mutate(t *testing.T, f func(*sweep.Bench)) string {
	t.Helper()
	b, err := check(strings.NewReader(validDoc()))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	f(b)
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCheckValidDocument(t *testing.T) {
	b, err := check(strings.NewReader(validDoc()))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if b.Name != "fixture" || len(b.Cells) != 2 {
		t.Fatalf("decoded name=%q cells=%d, want fixture with 2 cells", b.Name, len(b.Cells))
	}
	if len(b.Comparisons) != 1 {
		t.Fatalf("decoded %d comparisons, want the small-lazy -> huge-lazy pair", len(b.Comparisons))
	}
}

func TestCheckRejectsUnknownField(t *testing.T) {
	doc := strings.Replace(validDoc(), `"schema_version"`, `"schema_version_v2"`, 1)
	if _, err := check(strings.NewReader(doc)); err == nil {
		t.Fatal("document with unknown field accepted")
	}
}

func TestCheckRejectsSchemaVersionMismatch(t *testing.T) {
	doc := mutate(t, func(b *sweep.Bench) { b.SchemaVersion = sweep.SchemaVersion + 1 })
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("err = %v, want schema-version complaint", err)
	}
}

func TestCheckRejectsMissingStats(t *testing.T) {
	doc := mutate(t, func(b *sweep.Bench) { b.Cells[0].Stats = nil })
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "missing stats") {
		t.Fatalf("err = %v, want missing-stats complaint", err)
	}
}

func TestCheckRejectsNonMonotonicSeeds(t *testing.T) {
	doc := mutate(t, func(b *sweep.Bench) {
		c := &b.Cells[0]
		c.Seeds[0], c.Seeds[1] = c.Seeds[1], c.Seeds[0]
		c.Runs[0], c.Runs[1] = c.Runs[1], c.Runs[0]
	})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("err = %v, want non-monotonic-seed complaint", err)
	}
}

func TestCheckRejectsMisalignedRunSeed(t *testing.T) {
	doc := mutate(t, func(b *sweep.Bench) { b.Cells[0].Runs[1].Seed = 99 })
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "carries seed") {
		t.Fatalf("err = %v, want seed-alignment complaint", err)
	}
}

func TestCheckRejectsOutOfOrderCells(t *testing.T) {
	doc := mutate(t, func(b *sweep.Bench) {
		b.Cells[0], b.Cells[1] = b.Cells[1], b.Cells[0]
	})
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "canonical order") {
		t.Fatalf("err = %v, want canonical-order complaint", err)
	}
}

func TestCheckRejectsMalformedJSON(t *testing.T) {
	for _, doc := range []string{"", "not json", "[]", `{"schema_version":`} {
		if _, err := check(strings.NewReader(doc)); err == nil {
			t.Errorf("malformed document %q accepted", doc)
		}
	}
}

func TestCheckRejectsTrailingData(t *testing.T) {
	doc := validDoc() + "\n{}"
	_, err := check(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("err = %v, want trailing-data complaint", err)
	}
}
