package nas

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/node"
)

// gridConfig mirrors one seed-grid cell: Opteron, huge-lazy, the
// committed fault spec, 4 ranks.
func gridConfig(policy string) mpi.Config {
	spec, err := faults.ParseSpec("seed=5,attevict=600,wr=300")
	if err != nil {
		panic(err)
	}
	return mpi.Config{
		Machine:   machine.Opteron(),
		Ranks:     4,
		Allocator: mpi.AllocHuge,
		LazyDereg: true,
		HugeATT:   true,
		Faults:    spec,
		Policy:    policy,
	}
}

// stripPolicy zeroes the per-node policy counter section, the one part
// of a result that legitimately differs between a static engine and no
// engine at all.
func stripPolicy(res Result) Result {
	nodes := make([]node.Stats, len(res.Nodes))
	copy(nodes, res.Nodes)
	for i := range nodes {
		nodes[i].Policy = node.PolicyStats{}
	}
	res.Nodes = nodes
	return res
}

// The static policy is the legacy fixed strategy with counters: apart
// from the counters themselves, every virtual-time outcome and every
// telemetry field must be bit-for-bit what the no-engine run produces.
func TestStaticPolicyMatchesNoEngine(t *testing.T) {
	for _, name := range []string{"cg", "is"} {
		k := ByName(name)
		bare, err := RunKernel(gridConfig(""), k)
		if err != nil {
			t.Fatal(err)
		}
		static, err := RunKernel(gridConfig("static"), k)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range bare.Nodes {
			if n.Policy != (node.PolicyStats{}) {
				t.Fatalf("%s: no-engine node %d has policy counters %+v", name, i, n.Policy)
			}
		}
		if got := static.Nodes[0].Policy.Kind; got != "static" {
			t.Fatalf("%s: static run reports kind %q", name, got)
		}
		if !reflect.DeepEqual(stripPolicy(bare), stripPolicy(static)) {
			t.Fatalf("%s: static-policy run diverged from the no-engine run", name)
		}
	}
}

// Two identical adaptive runs must agree byte-for-byte, demotions and
// all — the determinism contract of the feedback engine.
func TestAdaptiveRunIsDeterministic(t *testing.T) {
	k := ByName("is")
	a, err := RunKernel(gridConfig("adaptive"), k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunKernel(gridConfig("adaptive"), k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical adaptive runs diverged")
	}
	// The run must actually exercise the interesting path: IS's
	// scattered bucket arena is the demotion showcase.
	pol := node.Sum(a.Nodes).Policy
	if pol.DemoteDecisions == 0 || pol.DemotedPages == 0 {
		t.Fatalf("adaptive IS run demoted nothing: %+v", pol)
	}
	// And the demotions must pay off against the same strategy without
	// an engine.
	bare, err := RunKernel(gridConfig(""), k)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total >= bare.Total {
		t.Fatalf("adaptive total %d not better than huge-lazy %d", a.Total, bare.Total)
	}
}
