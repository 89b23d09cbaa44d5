package mpip

import (
	"sync"
	"testing"
)

func TestAccumulationAndSplit(t *testing.T) {
	p := New()
	p.AddCall("Send", 100)
	p.AddCall("Send", 50)
	p.AddCall("Recv", 25)
	p.AddCompute(1000)
	p.AddAlloc(10)
	if got := p.CommTime(); got != 175 {
		t.Fatalf("CommTime = %d, want 175", got)
	}
	if got := p.ComputeTime(); got != 1010 {
		t.Fatalf("ComputeTime = %d, want 1010 (alloc counts as compute)", got)
	}
	if got := p.AllocTime(); got != 10 {
		t.Fatalf("AllocTime = %d", got)
	}
	calls := p.Calls()
	if len(calls) != 2 || calls[0].Name != "Send" || calls[0].Count != 2 || calls[0].Time != 150 {
		t.Fatalf("calls = %+v", calls)
	}
}

func TestCallsSortedByTimeThenName(t *testing.T) {
	p := New()
	p.AddCall("b", 10)
	p.AddCall("a", 10)
	p.AddCall("c", 99)
	calls := p.Calls()
	if calls[0].Name != "c" || calls[1].Name != "a" || calls[2].Name != "b" {
		t.Fatalf("order wrong: %+v", calls)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.AddCall("Send", 10)
	a.AddCompute(5)
	b.AddCall("Send", 20)
	b.AddCall("Bcast", 7)
	b.AddAlloc(3)
	a.Merge(b)
	if a.CommTime() != 37 {
		t.Fatalf("merged comm = %d", a.CommTime())
	}
	if a.ComputeTime() != 8 {
		t.Fatalf("merged compute = %d", a.ComputeTime())
	}
	if a.AllocTime() != 3 {
		t.Fatalf("merged alloc = %d", a.AllocTime())
	}
	// b unchanged.
	if b.CommTime() != 27 {
		t.Fatal("merge mutated the source")
	}
}

func TestNilProfileIsSafe(t *testing.T) {
	var p *Profile
	p.AddCall("Send", 1) // must not panic
	p.AddCompute(1)
	p.AddAlloc(1)
}

func TestConcurrentAddCall(t *testing.T) {
	p := New()
	var wg sync.WaitGroup //reprolint:ignore schedonly: exercises the profile's own thread safety
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() { //reprolint:ignore schedonly: exercises the profile's own thread safety
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.AddCall("Send", 1)
				p.AddCompute(1)
			}
		}()
	}
	wg.Wait()
	if p.CommTime() != 8000 || p.ComputeTime() != 8000 {
		t.Fatalf("lost updates: comm=%d compute=%d", p.CommTime(), p.ComputeTime())
	}
}

func TestEmptyProfile(t *testing.T) {
	p := New()
	if p.CommTime() != 0 || len(p.Calls()) != 0 {
		t.Fatal("empty profile not empty")
	}
}
