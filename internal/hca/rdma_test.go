package hca_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/trace"
	"repro/internal/vm"
)

// rdmaRig is two hosts, each with its own physical memory and adapter,
// and one registered region on each: the source of an RDMA write and
// its target.
type rdmaRig struct {
	srcAS, dstAS *vm.AddressSpace
	src, dst     *hca.HCA
	srcVA, dstVA vm.VA
	srcMR, dstMR *hca.MR
}

// rdmaCase describes one rig: page class and translation granularity of
// each side's region.
type rdmaCase struct {
	name             string
	srcHuge, srcATT  bool
	dstHuge, dstATT  bool
	srcSize, dstSize uint64
	srcOffs          []int // one SGE of sgeLen bytes per offset
	sgeLen           int
	dstOff           int
}

func newRDMARig(t *testing.T, c rdmaCase) *rdmaRig {
	t.Helper()
	host := func() *node.Node {
		// Default scrambling: small-page regions are physically
		// discontiguous, so chunk boundaries on the two sides differ.
		n, err := node.New(node.Config{Machine: machine.Opteron()})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := host(), host()
	g := &rdmaRig{srcAS: a.AS, dstAS: b.AS, src: a.Verbs.HW, dst: b.Verbs.HW}
	g.srcVA, g.srcMR = reg(t, g.srcAS, g.src, c.srcSize, c.srcHuge, c.srcATT)
	g.dstVA, g.dstMR = reg(t, g.dstAS, g.dst, c.dstSize, c.dstHuge, c.dstATT)
	in := make([]byte, c.srcSize)
	for i := range in {
		in[i] = byte(i*131 + i>>12 + 5)
	}
	if err := g.srcAS.Write(g.srcVA, in); err != nil {
		t.Fatal(err)
	}
	// Stale destination bytes that the write must overwrite.
	if err := g.dstAS.Write(g.dstVA, bytes.Repeat([]byte{0xEE}, int(c.dstSize))); err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *rdmaRig) sges(c rdmaCase) []hca.SGE {
	var s []hca.SGE
	for _, off := range c.srcOffs {
		s = append(s, hca.SGE{Addr: g.srcVA + vm.VA(off), Length: uint32(c.sgeLen), LKey: g.srcMR.LKey})
	}
	return s
}

func (g *rdmaRig) dstBytes(t *testing.T, size uint64) []byte {
	t.Helper()
	out := make([]byte, size)
	if err := g.dstAS.Read(g.dstVA, out); err != nil {
		t.Fatal(err)
	}
	return out
}

var rdmaCases = []rdmaCase{
	{name: "small->huge", dstHuge: true, dstATT: true,
		srcSize: 4 << 20, dstSize: 4 << 20,
		srcOffs: []int{1 << 20, 7}, sgeLen: 1<<20 + 4093, dstOff: 2<<20 - 12345},
	{name: "huge->small", srcHuge: true, srcATT: true,
		srcSize: 4 << 20, dstSize: 4 << 20,
		srcOffs: []int{2<<20 - 1000}, sgeLen: 1<<20 + 333, dstOff: 4095},
	{name: "huge4k->huge", srcHuge: true, dstHuge: true, dstATT: true,
		srcSize: 4 << 20, dstSize: 4 << 20,
		srcOffs: []int{3 << 20, 100, 2<<20 - 64}, sgeLen: 300001, dstOff: 2<<20 - 1},
	{name: "small->small", srcSize: 1 << 20, dstSize: 1 << 20,
		srcOffs: []int{20000, 100, 40001}, sgeLen: 9000, dstOff: 4096*3 - 17},
}

// TestRDMAWriteMatchesGatherScatter runs the buffered pair (Gather, then
// Scatter of the payload at the rkey) on one rig and RDMAWrite plus
// PlaceRDMA on a twin: the bytes that land, both costs and both
// adapters' counters must be identical.
func TestRDMAWriteMatchesGatherScatter(t *testing.T) {
	for _, c := range rdmaCases {
		t.Run(c.name, func(t *testing.T) {
			old, cur := newRDMARig(t, c), newRDMARig(t, c)
			n := c.sgeLen * len(c.srcOffs)
			target := old.dstVA + vm.VA(c.dstOff)

			data, oldGather, err := old.src.Gather(old.sges(c))
			if err != nil {
				t.Fatal(err)
			}
			oldScatter, err := old.dst.Scatter([]hca.SGE{{Addr: target, Length: uint32(n), LKey: old.dstMR.RKey}}, data)
			if err != nil {
				t.Fatal(err)
			}

			gather, err := cur.src.RDMAWrite(trace.Ctx{}, cur.sges(c), cur.dst, cur.dstMR.RKey, cur.dstVA+vm.VA(c.dstOff))
			if err != nil {
				t.Fatal(err)
			}
			scatter, err := cur.dst.PlaceRDMA(trace.Ctx{}, cur.dstMR.RKey, cur.dstVA+vm.VA(c.dstOff), n)
			if err != nil {
				t.Fatal(err)
			}

			if gather != oldGather || scatter != oldScatter {
				t.Fatalf("costs gather %d scatter %d, buffered pair %d %d", gather, scatter, oldGather, oldScatter)
			}
			if got, want := cur.src.Stats(), old.src.Stats(); got != want {
				t.Fatalf("source adapter stats %+v, buffered pair %+v", got, want)
			}
			if got, want := cur.dst.Stats(), old.dst.Stats(); got != want {
				t.Fatalf("target adapter stats %+v, buffered pair %+v", got, want)
			}
			got, want := cur.dstBytes(t, c.dstSize), old.dstBytes(t, c.dstSize)
			if !bytes.Equal(got, want) {
				t.Fatal("placed bytes differ from the buffered pair's")
			}
			if !bytes.Equal(got[c.dstOff:c.dstOff+n], data) {
				t.Fatal("placed bytes differ from the gathered source")
			}
		})
	}
}

// TestRDMAWriteFailsBeforeMoving: a bad remote key, a target range that
// leaves the remote region, or a bad local SGE anywhere in the list must
// be refused with no byte placed and no adapter counter moved.
func TestRDMAWriteFailsBeforeMoving(t *testing.T) {
	c := rdmaCases[0]
	g := newRDMARig(t, c)
	sges := g.sges(c)
	n := c.sgeLen * len(c.srcOffs)
	before := g.dstBytes(t, c.dstSize)
	badLocal := append(append([]hca.SGE(nil), sges...), hca.SGE{Addr: g.srcVA, Length: 8, LKey: 0xdead})
	for _, tc := range []struct {
		name string
		sges []hca.SGE
		rkey uint32
		va   vm.VA
		want error
	}{
		{"bad rkey", sges, g.dstMR.RKey ^ 0x10, g.dstVA, hca.ErrBadKey},
		{"past the end", sges, g.dstMR.RKey, g.dstVA + vm.VA(c.dstSize) - vm.VA(n) + 1, hca.ErrOutOfBounds},
		{"below the start", sges, g.dstMR.RKey, g.dstVA - 1, hca.ErrOutOfBounds},
		{"bad local key", badLocal, g.dstMR.RKey, g.dstVA, hca.ErrBadKey},
	} {
		s0, d0 := g.src.Stats(), g.dst.Stats()
		if _, err := g.src.RDMAWrite(trace.Ctx{}, tc.sges, g.dst, tc.rkey, tc.va); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if g.src.Stats() != s0 || g.dst.Stats() != d0 {
			t.Fatalf("%s: a refused write moved adapter counters", tc.name)
		}
		if !bytes.Equal(g.dstBytes(t, c.dstSize), before) {
			t.Fatalf("%s: a refused write placed bytes", tc.name)
		}
	}
}

// TestRKeyRDMAWrite: the target of an RDMA write is named by its remote
// key, on the receiving adapter's side of the pair as well.
func TestRKeyRDMAWrite(t *testing.T) {
	c := rdmaCase{srcSize: 1 << 20, dstSize: 1 << 20, srcOffs: []int{3}, sgeLen: 300000}
	g := newRDMARig(t, c)
	if _, err := g.src.RDMAWrite(trace.Ctx{}, g.sges(c), g.dst, g.dstMR.RKey, g.dstVA+7); err != nil {
		t.Fatal(err)
	}
	cost, err := g.dst.PlaceRDMA(trace.Ctx{}, g.dstMR.RKey, g.dstVA+7, c.sgeLen)
	if err != nil || cost <= 0 {
		t.Fatalf("place: cost %d, err %v", cost, err)
	}
	want := make([]byte, c.sgeLen)
	_ = g.srcAS.Read(g.srcVA+3, want)
	out := make([]byte, c.sgeLen)
	_ = g.dstAS.Read(g.dstVA+7, out)
	if !bytes.Equal(out, want) {
		t.Fatal("RDMA write corrupted the payload")
	}
	if _, err := g.dst.PlaceRDMA(trace.Ctx{}, g.dstMR.RKey^0x10, g.dstVA, 8); !errors.Is(err, hca.ErrBadKey) {
		t.Fatalf("place with a bad rkey: got %v", err)
	}
}
