package nas

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// TestFig6RowsAreTheStrategyTable pins that Figure 6's libc/hugepage
// pair is the strategy table's "small-lazy" and "huge-lazy": each row's
// runs, host telemetry included, equal RunKernel under those strategies
// applied over the same configuration.
func TestFig6RowsAreTheStrategyTable(t *testing.T) {
	cfg := mpi.Config{Machine: machine.Opteron(), Ranks: 2}
	k := &CG{N: 32768, Iters: 3}
	rows, err := RunFig6(cfg, []Kernel{k})
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		strategy string
		got      Result
	}{{"small-lazy", rows[0].Small}, {"huge-lazy", rows[0].Huge}} {
		st, ok := mpi.StrategyByName(side.strategy)
		if !ok {
			t.Fatalf("unknown strategy %q", side.strategy)
		}
		want, err := RunKernel(st.Apply(cfg), k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(side.got, want) {
			t.Errorf("%s: Figure 6 run differs from RunKernel under the strategy:\n%+v\nvs\n%+v", side.strategy, side.got, want)
		}
	}
}
