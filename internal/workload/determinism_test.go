package workload

import (
	"reflect"
	"testing"
)

// The sweep engine replicates cells across seeds and relies on the trace
// generators being pure functions of their params: equal seeds must
// produce bit-equal traces (or GOMAXPROCS would leak into BENCH
// documents), and distinct seeds must actually perturb the trace (or the
// seed-replicated statistics would be degenerate).

func TestAbinitTraceDeterministicPerSeed(t *testing.T) {
	p := DefaultAbinitParams()
	ops1, slots1 := AbinitTrace(p)
	ops2, slots2 := AbinitTrace(p)
	if slots1 != slots2 || !reflect.DeepEqual(ops1, ops2) {
		t.Fatal("AbinitTrace is not deterministic for a fixed seed")
	}
}

func TestAbinitTraceVariesAcrossSeeds(t *testing.T) {
	a := DefaultAbinitParams()
	b := a
	b.Seed = a.Seed + 1
	opsA, _ := AbinitTrace(a)
	opsB, _ := AbinitTrace(b)
	if reflect.DeepEqual(opsA, opsB) {
		t.Fatal("AbinitTrace ignores its seed: replicate statistics would be degenerate")
	}
}
