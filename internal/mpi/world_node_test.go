package mpi

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestNodeErrorPropagates pins that a rank's host construction error
// surfaces from NewWorld, naming the rank.
func TestNodeErrorPropagates(t *testing.T) {
	_, err := NewWorld(Config{Machine: machine.Opteron(), Ranks: 2, Allocator: "tcmalloc"})
	if err == nil {
		t.Fatal("unknown allocator accepted")
	}
	if !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("error %q does not name the rank", err)
	}
}

func TestRankExposesItsNode(t *testing.T) {
	w, err := NewWorld(Config{Machine: machine.Opteron(), Ranks: 2, Allocator: AllocHuge})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := w.Rank(i)
		n := r.Node()
		if n != w.nodes[i] {
			t.Fatalf("rank %d node does not match the world's node", i)
		}
		// The rank's hot-path aliases must point into its own node.
		if r.AS() != n.AS || r.Verbs() != n.Verbs || r.Cache() != n.Cache ||
			r.alloc != n.Alloc || r.DTLB() != n.DTLB {
			t.Fatalf("rank %d aliases diverge from its node", i)
		}
	}
}
