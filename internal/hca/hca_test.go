package hca_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/node/nodetest"
	"repro/internal/vm"
)

// rig builds an address space + adapter pair on one machine.
func rig(t *testing.T, m *machine.Machine) (*vm.AddressSpace, *hca.HCA) {
	t.Helper()
	n := nodetest.New(t, m)
	return n.AS, n.Verbs.HW
}

// reg maps, pins and installs a buffer, returning VA and MR.
func reg(t *testing.T, as *vm.AddressSpace, h *hca.HCA, size uint64, huge, hugeATT bool) (vm.VA, *hca.MR) {
	t.Helper()
	var va vm.VA
	var err error
	if huge {
		va, err = as.MapHuge(size)
	} else {
		va, err = as.MapSmall(size)
	}
	if err != nil {
		t.Fatal(err)
	}
	pages, err := as.Pin(nil, va, size)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := h.InstallMR(va, size, pages, hugeATT)
	if err != nil {
		t.Fatal(err)
	}
	return va, mr
}

func TestMTTEntryCounts(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	// 1 MiB small-page buffer: 256 entries.
	_, mr := reg(t, as, h, 1<<20, false, false)
	if mr.NumEntries() != 256 {
		t.Fatalf("small 1MiB: %d entries, want 256", mr.NumEntries())
	}
	// 4 MiB hugepage buffer without the patch: driver pretends 4K -> 1024.
	_, mr2 := reg(t, as, h, 4<<20, true, false)
	if mr2.NumEntries() != 1024 {
		t.Fatalf("huge unpatched: %d entries, want 1024", mr2.NumEntries())
	}
	// Same with the patch: 2 entries.
	_, mr3 := reg(t, as, h, 4<<20, true, true)
	if mr3.NumEntries() != 2 {
		t.Fatalf("huge patched: %d entries, want 2", mr3.NumEntries())
	}
	if mr3.PageShift != 21 || mr2.PageShift != 12 {
		t.Fatal("page shifts wrong")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 64<<10, false, false)

	in := make([]byte, 9000) // crosses pages
	for i := range in {
		in[i] = byte(i * 13)
	}
	if err := as.Write(va+100, in); err != nil {
		t.Fatal(err)
	}
	data, cost, err := h.Gather([]hca.SGE{{Addr: va + 100, Length: uint32(len(in)), LKey: mr.LKey}})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("gather must cost time")
	}
	for i := range in {
		if data[i] != in[i] {
			t.Fatalf("gather corrupted byte %d", i)
		}
	}
	// Scatter into a second buffer and verify.
	va2, mr2 := reg(t, as, h, 64<<10, false, false)
	if _, err := h.Scatter([]hca.SGE{{Addr: va2 + 5, Length: uint32(len(in)), LKey: mr2.LKey}}, data); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := as.Read(va2+5, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("scatter corrupted byte %d", i)
		}
	}
}

func TestMultiSGEGatherOrder(t *testing.T) {
	m := machine.SystemP()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 16<<10, false, false)
	_ = as.Write(va, []byte("AAAA"))
	_ = as.Write(va+8192, []byte("BBBB"))
	data, _, err := h.Gather([]hca.SGE{
		{Addr: va + 8192, Length: 4, LKey: mr.LKey},
		{Addr: va, Length: 4, LKey: mr.LKey},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "BBBBAAAA" {
		t.Fatalf("gather order wrong: %q", data)
	}
}

// TestGatherMultiPageSGEsAllocatesOnce gathers three SGEs, out of address
// order and each crossing page boundaries: the payload must match the
// source bytes, and the gather must allocate only the payload itself.
func TestGatherMultiPageSGEsAllocatesOnce(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 64<<10, false, false)
	in := make([]byte, 64<<10)
	for i := range in {
		in[i] = byte(i*31 + 7)
	}
	if err := as.Write(va, in); err != nil {
		t.Fatal(err)
	}
	sges := []hca.SGE{
		{Addr: va + 20000, Length: 9000, LKey: mr.LKey},
		{Addr: va + 100, Length: 12000, LKey: mr.LKey},
		{Addr: va + 40001, Length: 5000, LKey: mr.LKey},
	}
	var want []byte
	for _, s := range sges {
		off := int(s.Addr - va)
		want = append(want, in[off:off+int(s.Length)]...)
	}
	data, _, err := h.Gather(sges)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("gather payload differs from the source bytes")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := h.Gather(sges); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("gather made %v allocations, want 1 (the payload)", allocs)
	}
}

// TestGatherIntoFillsCallerBuffer: GatherInto writes exactly the payload
// Gather returns into the front of the caller's buffer, at Gather's cost
// and with no allocation, and refuses a buffer too short for the
// payload before any byte or counter moves.
func TestGatherIntoFillsCallerBuffer(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 64<<10, false, false)
	if err := as.WriteRamp(va, 5, 64<<10); err != nil {
		t.Fatal(err)
	}
	sges := []hca.SGE{
		{Addr: va + 30000, Length: 7000, LKey: mr.LKey},
		{Addr: va + 3, Length: 5000, LKey: mr.LKey},
	}
	// The first gather warms the translation cache, so the second and
	// GatherInto pay the same warm cost.
	if _, _, err := h.Gather(sges); err != nil {
		t.Fatal(err)
	}
	want, wantCost, err := h.Gather(sges)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xee}, len(want)+8)
	cost, err := h.GatherInto(buf, sges)
	if err != nil {
		t.Fatal(err)
	}
	if cost != wantCost {
		t.Errorf("GatherInto cost %d, Gather %d", cost, wantCost)
	}
	if !bytes.Equal(buf[:len(want)], want) || !bytes.Equal(buf[len(want):], bytes.Repeat([]byte{0xee}, 8)) {
		t.Fatal("GatherInto did not fill exactly the payload's bytes")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := h.GatherInto(buf, sges); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("GatherInto made %v allocations, want 0", allocs)
	}
	before := h.Stats()
	clear(buf)
	if _, err := h.GatherInto(buf[:len(want)-1], sges); err == nil {
		t.Fatal("GatherInto accepted a buffer one byte short")
	}
	if h.Stats() != before || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("a refused GatherInto moved bytes or counters")
	}
}

func TestScatterAcrossSGEs(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 16<<10, false, false)
	payload := []byte("0123456789")
	if _, err := h.Scatter([]hca.SGE{
		{Addr: va, Length: 4, LKey: mr.LKey},
		{Addr: va + 4096, Length: 6, LKey: mr.LKey},
	}, payload); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, 4)
	b := make([]byte, 6)
	_ = as.Read(va, a)
	_ = as.Read(va+4096, b)
	if string(a) != "0123" || string(b) != "456789" {
		t.Fatalf("scatter split wrong: %q %q", a, b)
	}
}

func TestScatterOverflowRejected(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 4096, false, false)
	_, err := h.Scatter([]hca.SGE{{Addr: va, Length: 8, LKey: mr.LKey}}, make([]byte, 16))
	if !errors.Is(err, hca.ErrOutOfBounds) {
		t.Fatalf("got %v, want ErrOutOfBounds", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 8192, false, false)
	if _, _, err := h.Gather([]hca.SGE{{Addr: va + 8000, Length: 500, LKey: mr.LKey}}); !errors.Is(err, hca.ErrOutOfBounds) {
		t.Fatalf("overrun: got %v", err)
	}
	if _, _, err := h.Gather([]hca.SGE{{Addr: va, Length: 8, LKey: 0xdead}}); !errors.Is(err, hca.ErrBadKey) {
		t.Fatalf("bad key: got %v", err)
	}
}

func TestPostCostSublinearInSGEs(t *testing.T) {
	// Figure 3 text: 128 SGEs cost only ~3x one SGE.
	m := machine.SystemP()
	_, h := rig(t, m)
	c1 := h.PostCost(1)
	c128 := h.PostCost(128)
	ratio := float64(c128) / float64(c1)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("post(128)/post(1) = %.2f, want ~3", ratio)
	}
	// Paper: post overhead 450-650 ticks for small WRs.
	if c1 < 400 || c1 > 700 {
		t.Fatalf("post(1) = %d ticks, want 450-650", c1)
	}
}

// TestPostPriceMatchesPostCost: PostPrice is PostCost's price without
// the post, so estimates that call it count no work request.
func TestPostPriceMatchesPostCost(t *testing.T) {
	for _, m := range machine.All() {
		_, h := rig(t, m)
		for nsge := 0; nsge <= 128; nsge++ {
			before := h.Stats().PostedWRs
			price := h.PostPrice(nsge)
			if h.Stats().PostedWRs != before {
				t.Fatalf("%s: PostPrice(%d) counted a WR", m.Name, nsge)
			}
			if cost := h.PostCost(nsge); cost != price {
				t.Fatalf("%s: PostPrice(%d) = %d, PostCost = %d", m.Name, nsge, price, cost)
			}
			if h.Stats().PostedWRs != before+1 {
				t.Fatalf("%s: PostCost(%d) did not count its WR", m.Name, nsge)
			}
		}
	}
}

func TestATTMissesDropWithHugeEntries(t *testing.T) {
	m := machine.Xeon()
	as, h := rig(t, m)
	// Buffer far larger than the ATT reach in 4K entries.
	const size = 8 << 20
	va, mr := reg(t, as, h, size, true, false) // unpatched: 2048 entries
	sge := []hca.SGE{{Addr: va, Length: size, LKey: mr.LKey}}
	for i := 0; i < 3; i++ {
		if _, _, err := h.Gather(sge); err != nil {
			t.Fatal(err)
		}
	}
	unpatchedMisses := h.Stats().ATTMisses

	as2, h2 := rig(t, m)                          // a fresh adapter: cold ATT, zeroed counters
	va2, mr2 := reg(t, as2, h2, size, true, true) // patched: 4 entries
	sge2 := []hca.SGE{{Addr: va2, Length: size, LKey: mr2.LKey}}
	for i := 0; i < 3; i++ {
		if _, _, err := h2.Gather(sge2); err != nil {
			t.Fatal(err)
		}
	}
	patchedMisses := h2.Stats().ATTMisses
	if patchedMisses*50 > unpatchedMisses {
		t.Fatalf("huge ATT entries should slash misses: %d vs %d", patchedMisses, unpatchedMisses)
	}
}

func TestRemoveMRInvalidatesKey(t *testing.T) {
	m := machine.Opteron()
	as, h := rig(t, m)
	va, mr := reg(t, as, h, 4096, false, false)
	if err := h.RemoveMR(mr.LKey); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Gather([]hca.SGE{{Addr: va, Length: 8, LKey: mr.LKey}}); !errors.Is(err, hca.ErrBadKey) {
		t.Fatalf("stale key accepted: %v", err)
	}
	if err := h.RemoveMR(mr.LKey); !errors.Is(err, hca.ErrBadKey) {
		t.Fatal("double remove accepted")
	}
	if h.Stats().MTTEntries != 0 {
		t.Fatal("MTT accounting leaked")
	}
}

func TestWireCostShape(t *testing.T) {
	m := machine.Opteron()
	_, h := rig(t, m)
	small := h.WireCost(1)
	big := h.WireCost(4 << 20)
	if small <= 0 || big <= small {
		t.Fatal("wire cost shape wrong")
	}
	// Large messages approach wire bandwidth: doubling size ~doubles cost.
	r := float64(h.WireCost(8<<20)) / float64(big)
	if r < 1.8 || r > 2.2 {
		t.Fatalf("large-message scaling %f, want ~2", r)
	}
}

func TestTotalLen(t *testing.T) {
	if hca.TotalLen([]hca.SGE{{Length: 3}, {Length: 5}}) != 8 {
		t.Fatal("TotalLen broken")
	}
	if hca.TotalLen(nil) != 0 {
		t.Fatal("TotalLen(nil) != 0")
	}
}
