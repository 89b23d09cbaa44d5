package nas

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// TestFig6PaperShape asserts every qualitative claim the paper makes about
// Figure 6 and the Section 5.2 discussion, at default kernel scale on the
// AMD Opteron system (the one instrumented with PAPI in the paper).
func TestFig6PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 6 run takes ~10s")
	}
	rows, err := RunFig6(mpi.Config{Machine: machine.Opteron(), Ranks: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig6Row{}
	for _, row := range rows {
		byName[row.Kernel] = row
	}
	t.Log("\n" + FormatFig6("opteron", rows))

	// "Except for MG and IS, all benchmarks show communication
	// performance benefits of more than 8 %."
	for _, k := range []string{"cg", "ep", "lu"} {
		if byName[k].CommImprove <= 8 {
			t.Errorf("%s: comm improvement %.1f%%, want > 8%%", k, byName[k].CommImprove)
		}
	}
	for _, k := range []string{"mg", "is"} {
		if byName[k].CommImprove >= 8 {
			t.Errorf("%s: comm improvement %.1f%%, want < 8%% (the MG/IS exception)", k, byName[k].CommImprove)
		}
		if byName[k].CommImprove <= 0 {
			t.Errorf("%s: comm improvement %.1f%% should still be positive", k, byName[k].CommImprove)
		}
	}

	// "Overall, all benchmarks benefited from using hugepages - except
	// for IS."
	for _, k := range []string{"cg", "ep", "lu", "mg"} {
		if byName[k].OverallImprove <= 0 {
			t.Errorf("%s: overall improvement %.1f%%, want positive", k, byName[k].OverallImprove)
		}
	}
	if byName["is"].OverallImprove >= 0 {
		t.Errorf("is: overall improvement %.1f%%, want negative", byName["is"].OverallImprove)
	}

	// "The results show time improvements of more than 10 %."
	best := 0.0
	for _, row := range rows {
		if row.OverallImprove > best {
			best = row.OverallImprove
		}
	}
	if best <= 10 {
		t.Errorf("best overall improvement %.1f%%, want > 10%%", best)
	}

	// "TLB misses increased dramatically with hugepages (up to eight
	// times with EP) except for LU."
	if r := byName["ep"].TLBMissRatio; r < 5 || r > 10 {
		t.Errorf("ep: TLB miss ratio %.1f, want ~8", r)
	}
	if r := byName["lu"].TLBMissRatio; r > 1.1 {
		t.Errorf("lu: TLB miss ratio %.2f, want <= ~1 (the LU exception)", r)
	}
	for _, k := range []string{"cg", "is"} {
		if byName[k].TLBMissRatio <= 1 {
			t.Errorf("%s: TLB miss ratio %.2f, want > 1 (misses increased)", k, byName[k].TLBMissRatio)
		}
	}

	// EP's computation still improved despite the TLB blowup (the
	// prefetcher benefit of physically contiguous memory).
	if byName["ep"].OtherImprove <= 0 {
		t.Errorf("ep: other improvement %.1f%%, want positive despite TLB blowup", byName["ep"].OtherImprove)
	}
	// IS loses computation time (the negative "other" bar).
	if byName["is"].OtherImprove >= 0 {
		t.Errorf("is: other improvement %.1f%%, want negative", byName["is"].OtherImprove)
	}
}

// TestFig6SystemP checks the System p column: same qualitative comm
// ordering; all kernels improve overall on this machine (its larger TLB
// files soften the hugepage penalty).
func TestFig6SystemP(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 6 run takes ~10s")
	}
	rows, err := RunFig6(mpi.Config{Machine: machine.SystemP(), Ranks: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatFig6("systemp", rows))
	for _, row := range rows {
		switch row.Kernel {
		case "cg", "ep", "lu":
			if row.CommImprove <= 8 {
				t.Errorf("%s: comm improvement %.1f%%, want > 8%%", row.Kernel, row.CommImprove)
			}
		case "mg", "is":
			if row.CommImprove >= 8 {
				t.Errorf("%s: comm improvement %.1f%%, want < 8%%", row.Kernel, row.CommImprove)
			}
		}
		if row.OverallImprove <= 0 {
			t.Errorf("%s: overall improvement %.1f%%, want positive on System p", row.Kernel, row.OverallImprove)
		}
	}
}

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
