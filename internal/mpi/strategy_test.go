package mpi

import (
	"reflect"
	"testing"
)

func TestStrategyApply(t *testing.T) {
	base := Config{Ranks: 4, Policy: "static", TracePrefix: "job."}
	got := MustStrategy("huge-lazy-noatt").Apply(base)
	want := base
	want.Allocator, want.LazyDereg, want.HugeATT = AllocHuge, true, false
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("huge-lazy-noatt applied = %+v, want %+v", got, want)
	}
	if got := MustStrategy("adaptive").Apply(base); got.Policy != "adaptive" {
		t.Fatalf("adaptive kept policy %q", got.Policy)
	}
	if _, ok := StrategyByName("nope"); ok {
		t.Fatal("unknown strategy resolved")
	}
}

// TestRecipeAndBaselineMapping checks the two strategies the figures
// compare: the paper's full recipe ("huge-lazy") turns on all three
// placement knobs, the do-nothing baseline ("small") leaves the
// allocator and registration cache as stock, and neither touches the
// rank count.
func TestRecipeAndBaselineMapping(t *testing.T) {
	cfg := MustStrategy("huge-lazy").Apply(Config{Ranks: 8})
	if cfg.Allocator != AllocHuge || !cfg.LazyDereg || !cfg.HugeATT || cfg.Ranks != 8 {
		t.Fatalf("huge-lazy config wrong: %+v", cfg)
	}
	base := MustStrategy("small").Apply(Config{Ranks: 2})
	if base.Allocator != AllocLibc || base.LazyDereg || base.Ranks != 2 {
		t.Fatalf("small config wrong: %+v", base)
	}
}
