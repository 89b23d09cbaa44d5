package nas

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

func TestProbeISCalls(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, ak := range []mpi.AllocatorKind{mpi.AllocLibc, mpi.AllocHuge} {
		cfg := mpi.Config{Machine: machine.Opteron(), Ranks: 8, Allocator: ak, LazyDereg: true, HugeATT: true}
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := DefaultIS()
		if err := w.Run(func(r *mpi.Rank) error {
			r.Cache().MaxPinned = 2 << 20
			return k.Run(r)
		}); err != nil {
			t.Fatal(err)
		}
		t.Logf("=== %s === rank 0 comm=%v compute=%v", ak, w.Rank(0).CommTime(), w.Rank(0).ComputeTime())
		st := w.Rank(0).Verbs().HW.Stats()
		t.Logf("ATT hits=%d misses=%d", st.ATTHits, st.ATTMisses)
	}
}
