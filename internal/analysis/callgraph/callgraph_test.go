package callgraph_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

func loadFixture(t *testing.T) []*analysis.Package {
	t.Helper()
	pkgs, err := analysis.NewLoader("testdata/src", "").Load()
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkgs
}

// TestDeterministicEdgeList loads the fixture tree twice through two
// independent loaders and requires the rendered edge lists to be
// byte-identical — the callgraph analogue of the repo's same-seed
// golden checks.
func TestDeterministicEdgeList(t *testing.T) {
	a := strings.Join(callgraph.Build(loadFixture(t)).Describe(), "\n")
	b := strings.Join(callgraph.Build(loadFixture(t)).Describe(), "\n")
	if a != b {
		t.Fatalf("two loads rendered different edge lists:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty edge list: fixture not loaded")
	}
}

// TestInterfaceDispatchIsConservative proves interface calls dispatch
// to every implementing module type and nothing else.
func TestInterfaceDispatchIsConservative(t *testing.T) {
	g := callgraph.Build(loadFixture(t))
	announce := g.Lookup("iface.Announce")
	if announce == nil {
		t.Fatal("iface.Announce node missing")
	}
	var ifaceCallees []string
	for _, e := range announce.Out {
		if e.Kind == callgraph.Interface {
			ifaceCallees = append(ifaceCallees, e.Callee.ID)
		}
	}
	want := []string{"iface.(*Cat).Speak", "iface.(Dog).Speak"}
	if got := strings.Join(ifaceCallees, ","); got != strings.Join(want, ",") {
		t.Fatalf("interface dispatch candidates = %q, want %q", got, strings.Join(want, ","))
	}
	for _, e := range announce.Out {
		if strings.Contains(e.Callee.ID, "Robot") {
			t.Fatalf("Robot.Speak (wrong signature) wrongly among candidates: %s", e.Callee.ID)
		}
	}
}

// TestDynamicDispatchUsesAddressTaken proves function-value calls
// resolve to address-taken functions only.
func TestDynamicDispatchUsesAddressTaken(t *testing.T) {
	g := callgraph.Build(loadFixture(t))
	wire := g.Lookup("iface.Wire")
	if wire == nil {
		t.Fatal("iface.Wire node missing")
	}
	var static, dynamic []string
	for _, e := range wire.Out {
		switch e.Kind {
		case callgraph.Static:
			static = append(static, e.Callee.ID)
		case callgraph.Dynamic:
			dynamic = append(dynamic, e.Callee.ID)
		}
	}
	joined := strings.Join(dynamic, ",")
	if !strings.Contains(joined, "iface.indirect") {
		t.Fatalf("dynamic site missing address-taken candidate iface.indirect: %q", joined)
	}
	if strings.Contains(joined, "notTaken") {
		t.Fatalf("dynamic site dispatches to never-address-taken function: %q", joined)
	}
	sjoined := strings.Join(static, ",")
	for _, want := range []string{"iface.direct", "iface.Announce"} {
		if !strings.Contains(sjoined, want) {
			t.Fatalf("static edges %q missing %s", sjoined, want)
		}
	}
}

// TestReachability checks forward and inverse reachability agree.
func TestReachability(t *testing.T) {
	g := callgraph.Build(loadFixture(t))
	wire, direct := g.Lookup("iface.Wire"), g.Lookup("iface.direct")
	if wire == nil || direct == nil {
		t.Fatal("fixture nodes missing")
	}
	if !g.Reachable([]*callgraph.Node{wire}, nil)[direct] {
		t.Fatal("direct not forward-reachable from Wire")
	}
	if !g.ReachesInverse([]*callgraph.Node{direct}, nil)[wire] {
		t.Fatal("Wire does not inverse-reach direct")
	}
}
