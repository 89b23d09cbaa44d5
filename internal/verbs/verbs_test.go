package verbs_test

import (
	"testing"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/node/nodetest"
	"repro/internal/trace"
	"repro/internal/verbs"
)

func ctx(t *testing.T, m *machine.Machine) *verbs.Context {
	t.Helper()
	return nodetest.New(t, m).Verbs
}

func TestRegMRCostScalesWithPages(t *testing.T) {
	c := ctx(t, machine.Opteron())
	va1, _ := c.AS.MapSmall(1 << 20)
	va8, _ := c.AS.MapSmall(8 << 20)
	_, t1, err := c.RegMR(va1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, t8, err := c.RegMR(va8, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	r := float64(t8) / float64(t1)
	if r < 5 || r > 9 {
		t.Fatalf("8MiB/1MiB registration ratio = %.2f, want ~8 (page-dominated)", r)
	}
}

func TestHugepageRegistrationIsAboutOnePercent(t *testing.T) {
	// Section 5.1, item 1: with hugepages, registration time decreased
	// "down to 1 % of the time as with small pages". Check at 8 MiB.
	c := ctx(t, machine.Opteron())
	c.HugeATT = true
	const size = 8 << 20
	vaS, _ := c.AS.MapSmall(size)
	vaH, _ := c.AS.MapHuge(size)
	_, tS, err := c.RegMR(vaS, size)
	if err != nil {
		t.Fatal(err)
	}
	_, tH, err := c.RegMR(vaH, size)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(tH) / float64(tS)
	if frac > 0.03 {
		t.Fatalf("huge/small registration = %.4f, want <= 0.03 (~1%%)", frac)
	}
	t.Logf("registration 8MiB: small=%v huge=%v (%.2f%%)", tS, tH, 100*frac)
}

func TestUnpatchedDriverStillPushes4KEntries(t *testing.T) {
	c := ctx(t, machine.Opteron())
	c.HugeATT = false // kernel pretends 4 KB pages
	va, _ := c.AS.MapHuge(4 << 20)
	mr, _, err := c.RegMR(va, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Entries != 1024 {
		t.Fatalf("unpatched driver pushed %d entries, want 1024", mr.Entries)
	}
	if !mr.Huge {
		t.Fatal("MR should still know it is hugepage-backed")
	}
}

func TestDeregUnpinsAndInvalidates(t *testing.T) {
	c := ctx(t, machine.Opteron())
	va, _ := c.AS.MapSmall(64 << 10)
	mr, _, err := c.RegMR(va, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned: unmap must fail.
	if err := c.AS.Unmap(va, 64<<10); err == nil {
		t.Fatal("unmap of registered buffer should fail")
	}
	if _, err := c.DeregMR(mr); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Unmap(va, 64<<10); err != nil {
		t.Fatalf("unmap after dereg: %v", err)
	}
	// The HCA must have dropped the key.
	if _, _, err := c.HW.Gather([]hca.SGE{{Addr: va, Length: 8, LKey: mr.LKey}}); err == nil {
		t.Fatal("stale lkey still valid after dereg")
	}
	st := c.Stats()
	if st.Registrations != 1 || st.Deregistrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPinnedGaugesReturnToZero(t *testing.T) {
	// PagesPinned and PinnedBytes are gauges (reprolint:statspairing):
	// a full register/deregister cycle must return both to zero.
	// PagesPinned used to be one-way — incremented on RegMR, never
	// given back on DeregMR.
	c := ctx(t, machine.Opteron())
	vaS, _ := c.AS.MapSmall(64 << 10)
	vaH, _ := c.AS.MapHuge(4 << 20)
	mrS, _, err := c.RegMR(vaS, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	mrH, _, err := c.RegMR(vaH, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.PagesPinned == 0 || st.PinnedBytes == 0 {
		t.Fatalf("gauges flat while registered: %+v", st)
	}
	if _, err := c.DeregMR(mrH); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeregMR(mrS); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PagesPinned != 0 || st.PinnedBytes != 0 {
		t.Fatalf("pinned gauges leak after full dereg: pages=%d bytes=%d", st.PagesPinned, st.PinnedBytes)
	}
}

func TestZeroLengthRegRejected(t *testing.T) {
	c := ctx(t, machine.Opteron())
	if _, _, err := c.RegMR(0x1000, 0); err == nil {
		t.Fatal("zero-length registration accepted")
	}
}

func TestRegUnmappedFails(t *testing.T) {
	c := ctx(t, machine.Opteron())
	if _, _, err := c.RegMR(0xdead0000, 4096); err == nil {
		t.Fatal("registration of unmapped range accepted")
	}
}

func TestPostAndPollCharge(t *testing.T) {
	c := ctx(t, machine.SystemP())
	if c.PostSend(trace.Ctx{}, make([]hca.SGE, 4)) <= c.PostSend(trace.Ctx{}, make([]hca.SGE, 1)) {
		t.Fatal("more SGEs should cost more to post")
	}
	if c.PollCQ(trace.Ctx{}) <= 0 {
		t.Fatal("poll must cost time")
	}
}
