package workload

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/machine"
	"repro/internal/node/nodetest"
	"repro/internal/vm"
)

func newAS(t testing.TB) *vm.AddressSpace {
	t.Helper()
	return nodetest.New(t, machine.SystemP()).AS
}

func TestAbinitTraceShape(t *testing.T) {
	p := DefaultAbinitParams()
	ops, slots := AbinitTrace(p)
	if slots != p.BaseArrays+p.WorkArrays {
		t.Fatalf("slots = %d", slots)
	}
	allocs, frees := 0, 0
	for _, op := range ops {
		if op.Alloc {
			allocs++
			if op.Size < p.MinSize || op.Size > p.MaxSize {
				t.Fatalf("size %d out of bounds", op.Size)
			}
		} else {
			frees++
		}
	}
	if allocs != frees {
		t.Fatalf("unbalanced trace: %d allocs, %d frees", allocs, frees)
	}
	want := p.BaseArrays + p.Iterations*p.WorkArrays
	if allocs != want {
		t.Fatalf("allocs = %d, want %d", allocs, want)
	}
}

func TestAbinitTraceDeterministic(t *testing.T) {
	a, _ := AbinitTrace(DefaultAbinitParams())
	b, _ := AbinitTrace(DefaultAbinitParams())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestAbinitAllocationSpeedup(t *testing.T) {
	// The paper: "we measured allocation benefits of up to 10 times with
	// our library (e.g. for Abinit)". Require at least 5x here; the bench
	// reports the exact figure.
	ops, slots := AbinitTrace(DefaultAbinitParams())

	libc := alloc.NewLibc(newAS(t), 1300)
	rl, err := alloc.Replay(libc, ops, slots)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := alloc.NewHuge(newAS(t), 1300, alloc.DefaultHugeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rh, err := alloc.Replay(huge, ops, slots)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rl.AllocTime) / float64(rh.AllocTime)
	t.Logf("alloc time libc=%v huge=%v speedup=%.1fx", rl.AllocTime, rh.AllocTime, ratio)
	if ratio < 5 {
		t.Fatalf("hugepage library speedup %.2fx < 5x on the Abinit trace", ratio)
	}
	if ratio > 20 {
		t.Fatalf("speedup %.2fx implausibly high (paper says up to 10x)", ratio)
	}
}
