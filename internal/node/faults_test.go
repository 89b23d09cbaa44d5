package node_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/vm"
)

func probeNode(t *testing.T, specStr string) *node.Node {
	t.Helper()
	spec, err := faults.ParseSpec(specStr)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{
		Machine:   machine.Opteron(),
		Allocator: node.AllocHuge,
		LazyDereg: true,
		Faults:    spec,
		FaultSalt: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// degradationProbe drives the node's allocation and registration path
// hard enough to surface degraded-mode behaviour under an active fault
// spec: a deterministic ladder of large allocations (hugepage-library
// requests that redirect to libc once the pool runs dry), each
// registered through the pin-down cache (tripping the memlock
// evict-and-retry policy when a ceiling is set), then invalidated and
// freed. With no fault spec it is just a short, clean
// allocate/register/free exercise.
//
// The ladder holds all blocks live before releasing any, so a capped
// pool genuinely exhausts, and it keeps every registration released
// (refcount zero) before the next Acquire, so memlock recovery always
// has idle entries to evict — the probe completes under any spec whose
// memlock ceiling admits one block.
func degradationProbe(n *node.Node) error {
	const (
		blocks     = 12
		blockBytes = 4 << 20
	)
	vas := make([]vm.VA, 0, blocks)
	for i := 0; i < blocks; i++ {
		va, err := n.Alloc.Alloc(blockBytes)
		if err != nil {
			return fmt.Errorf("node: probe alloc %d: %w", i, err)
		}
		mr, _, err := n.Cache.Acquire(va, blockBytes)
		if err != nil {
			return fmt.Errorf("node: probe register %d: %w", i, err)
		}
		if _, err := n.Cache.Release(mr); err != nil {
			return fmt.Errorf("node: probe release %d: %w", i, err)
		}
		vas = append(vas, va)
	}
	// A BSS-style mapping exercises the vm-level MapHugeOrSmall fallback
	// (distinct from the library's Figure-2 redirect): under an
	// exhausted pool it lands in small pages and counts HugeFallbacks.
	// The segment is startup-owned and never freed, as in the paper's
	// linker-script trick.
	if h, ok := n.Alloc.(*alloc.Huge); ok {
		if _, _, err := h.MapBSS(blockBytes); err != nil {
			return fmt.Errorf("node: probe bss: %w", err)
		}
	} else if _, _, err := n.AS.MapHugeOrSmall(blockBytes); err != nil {
		return fmt.Errorf("node: probe bss: %w", err)
	}
	for i, va := range vas {
		if _, err := n.Cache.Invalidate(va, blockBytes); err != nil {
			return fmt.Errorf("node: probe invalidate %d: %w", i, err)
		}
		if err := n.Alloc.Free(va); err != nil {
			return fmt.Errorf("node: probe free %d: %w", i, err)
		}
	}
	return nil
}

func TestDegradationProbeSurfacesPressure(t *testing.T) {
	n := probeNode(t, "seed=7,hugecap=8,memlock=16m")
	if err := degradationProbe(n); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Alloc.FallbackToSmall == 0 || st.Alloc.FallbackBytes == 0 {
		t.Fatalf("capped pool should redirect library allocations: %+v", st.Alloc)
	}
	if st.Mem.HugeFallbacks == 0 || st.Mem.HugeFallbackBytes == 0 {
		t.Fatalf("BSS mapping should take the vm-level fallback: %+v", st.Mem)
	}
	if st.Faults.MemlockRetries == 0 || st.Faults.MemlockEvictions == 0 {
		t.Fatalf("memlock ceiling never tripped evict-and-retry: %+v", st.Faults)
	}
	if st.Faults.PoolPagesRemoved == 0 {
		t.Fatalf("pool cap removed no pages: %+v", st.Faults)
	}
	if st.Faults.MemlockLimit != 16<<20 || st.Faults.Spec == "" {
		t.Fatalf("fault identity not echoed: %+v", st.Faults)
	}
}

func TestDegradationProbeIsDeterministic(t *testing.T) {
	run := func() node.Stats {
		n := probeNode(t, "seed=7,hugecap=8,hugefail=40,shrink=100:2,memlock=16m,attevict=400")
		if err := degradationProbe(n); err != nil {
			t.Fatal(err)
		}
		return n.Stats()
	}
	st1, st2 := run(), run()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("same-seed probes diverge:\n%+v\n%+v", st1, st2)
	}
}

func TestDegradationProbeCleanWithoutFaults(t *testing.T) {
	n := probeNode(t, "")
	if err := degradationProbe(n); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Faults != (node.FaultStats{}) {
		t.Fatalf("clean probe reported fault activity: %+v", st.Faults)
	}
	if st.Alloc.FallbackToSmall != 0 {
		t.Fatalf("clean probe fell back: %+v", st.Alloc)
	}
}

// TestReportSchemaIsClosed is the authoritative check behind CI's golden
// step: the -stats output must decode against []node.Report
// with no unknown fields in either direction.
func TestReportSchemaIsClosed(t *testing.T) {
	n := probeNode(t, "seed=7,hugecap=8,memlock=16m")
	if err := degradationProbe(n); err != nil {
		t.Fatal(err)
	}
	reports := []node.Report{
		node.NewReport("test", "probe", "opteron", "seed=7", []node.Stats{n.Stats()}),
	}
	var buf bytes.Buffer
	if err := node.WriteReports(&buf, reports); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var back []node.Report
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("emitted JSON does not round-trip the schema: %v", err)
	}
	if !reflect.DeepEqual(reports, back) {
		t.Fatal("decode lost data")
	}
	// The per-node documents key every layer, faults included.
	var doc []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var nodes []map[string]json.RawMessage
	if err := json.Unmarshal(doc[0]["nodes"], &nodes); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"machine", "allocator", "tlb", "hca", "reg", "regcache", "alloc", "mem", "faults"} {
		if _, ok := nodes[0][key]; !ok {
			t.Fatalf("node stats JSON missing %q section", key)
		}
	}
}
