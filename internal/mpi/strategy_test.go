package mpi

import (
	"reflect"
	"testing"
)

func TestStrategyApply(t *testing.T) {
	base := Config{Ranks: 4, Policy: "static", EagerLimit: 1 << 10}
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
