package regcache_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/node/nodetest"
	"repro/internal/regcache"
	"repro/internal/verbs"
	"repro/internal/vm"
)

func ctx(t *testing.T) *verbs.Context {
	t.Helper()
	return nodetest.New(t, machine.Opteron()).Verbs
}

func TestLazyReuseIsCheap(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, true)
	va, _ := c.AS.MapSmall(1 << 20)
	_, first, err := rc.Acquire(va, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mr2, second, err := rc.Acquire(va, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if second >= first/10 {
		t.Fatalf("cache hit cost %d should be tiny vs miss %d", second, first)
	}
	if _, err := rc.Release(mr2); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PinnedBytes != 1<<20 {
		t.Fatalf("pinned gauge = %d", st.PinnedBytes)
	}
}

func TestContainmentHit(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, true)
	va, _ := c.AS.MapSmall(1 << 20)
	if _, _, err := rc.Acquire(va, 1<<20); err != nil {
		t.Fatal(err)
	}
	// A sub-range of the registered region must hit.
	if _, _, err := rc.Acquire(va+4096, 64<<10); err != nil {
		t.Fatal(err)
	}
	if rc.Stats().Hits != 1 {
		t.Fatal("sub-range lookup should hit")
	}
	if rc.Len() != 1 {
		t.Fatal("containment hit must not add entries")
	}
}

func TestEagerModeAlwaysRegisters(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, false)
	va, _ := c.AS.MapSmall(256 << 10)
	for i := 0; i < 3; i++ {
		mr, cost, err := rc.Acquire(va, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		if cost <= 0 {
			t.Fatal("eager acquire must pay registration")
		}
		if _, err := rc.Release(mr); err != nil {
			t.Fatal(err)
		}
	}
	st := rc.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PinnedBytes != 0 {
		t.Fatal("eager mode must not hold pinned memory")
	}
}

func TestEvictionBound(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, true)
	rc.MaxPinned = 3 << 20
	for i := 0; i < 6; i++ {
		va, err := c.AS.MapSmall(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		mr, _, err := rc.Acquire(va, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Release(mr); err != nil {
			t.Fatal(err)
		}
	}
	st := rc.Stats()
	if st.PinnedBytes > rc.MaxPinned {
		t.Fatalf("pinned %d exceeds bound %d", st.PinnedBytes, rc.MaxPinned)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestInvalidateOnFree(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, true)
	va, _ := c.AS.MapSmall(512 << 10)
	mr, _, err := rc.Acquire(va, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Release(mr); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Invalidate(va+1000, 10); err != nil {
		t.Fatal(err)
	}
	if rc.Len() != 0 {
		t.Fatal("intersecting invalidate must drop the entry")
	}
	// The memory must now be unmappable (pins released).
	if err := c.AS.Unmap(va, 512<<10); err != nil {
		t.Fatalf("unmap after invalidate: %v", err)
	}
	// Re-acquire re-registers.
	va2, _ := c.AS.MapSmall(512 << 10)
	if _, _, err := rc.Acquire(va2, 512<<10); err != nil {
		t.Fatal(err)
	}
	if rc.Stats().Misses != 2 {
		t.Fatal("re-acquire after invalidate should miss")
	}
}

func TestFirstUsePaysFullRegistrationEvenWhenLazy(t *testing.T) {
	// Figure 5 discussion: "Even if lazy deregistration is enabled, the
	// first use of a buffer results in a memory registration with an
	// equal time consumption".
	c := ctx(t)
	eager := regcache.New(c, false)
	lazy := regcache.New(c, true)
	va1, _ := c.AS.MapSmall(1 << 20)
	va2, _ := c.AS.MapSmall(1 << 20)
	mrE, costE, err := eager.Acquire(va1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, costL, err := lazy.Acquire(va2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(costL-costE) / float64(costE)
	if diff < -0.05 || diff > 0.05 {
		t.Fatalf("first-use costs differ by %.1f%%", diff*100)
	}
	if _, err := eager.Release(mrE); err != nil {
		t.Fatal(err)
	}
}

func TestInUseEntrySurvivesEvictionAndInvalidate(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, true)
	rc.MaxPinned = 1 << 20
	va, _ := c.AS.MapSmall(1 << 20)
	mr, _, err := rc.Acquire(va, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Pressure the cache: the in-use region must not be deregistered.
	for i := 0; i < 3; i++ {
		va2, _ := c.AS.MapSmall(1 << 20)
		mr2, _, err := rc.Acquire(va2, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Release(mr2); err != nil {
			t.Fatal(err)
		}
	}
	// Invalidate over the in-use range: becomes a zombie, still pinned.
	if _, err := rc.Invalidate(va, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Unmap(va, 1<<20); err == nil {
		t.Fatal("in-use (zombie) region was unpinned while in flight")
	}
	// Final release tears it down; the memory becomes unmappable.
	if _, err := rc.Release(mr); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Unmap(va, 1<<20); err != nil {
		t.Fatalf("unmap after final release: %v", err)
	}
}

func TestAcquireRoundsToPages(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, true)
	va, _ := c.AS.MapSmall(64 << 10)
	// Two slightly different byte lengths within the same pages must
	// share one registration (the IS count-jitter case).
	mrA, _, err := rc.Acquire(va+100, 8000)
	if err != nil {
		t.Fatal(err)
	}
	mrB, _, err := rc.Acquire(va+40, 8100)
	if err != nil {
		t.Fatal(err)
	}
	if mrA != mrB {
		t.Fatal("page-rounded acquires did not share a registration")
	}
	if rc.Stats().Misses != 1 {
		t.Fatalf("misses = %d, want 1", rc.Stats().Misses)
	}
}

// eagerDecider forces eager deregistration for every acquire — the
// policy engine's over-budget override inside a lazy cache.
type eagerDecider struct{}

func (eagerDecider) DecideLazy(va vm.VA, length uint64, lazyDefault bool, maxPinned, pinnedBytes int64) bool {
	return false
}

func TestPolicyEagerInsideLazyCacheDoesNotLeak(t *testing.T) {
	c := ctx(t)
	rc := regcache.New(c, true)
	rc.SetPolicy(eagerDecider{})
	va, _ := c.AS.MapSmall(1 << 20)
	mr, _, err := rc.Acquire(va, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Len() != 0 {
		t.Fatal("eager registration must not enter the cache")
	}
	if _, err := rc.Release(mr); err != nil {
		t.Fatal(err)
	}
	st := rc.Stats()
	if st.PinnedBytes != 0 {
		t.Fatalf("pinned gauge = %d after eager release, want 0", st.PinnedBytes)
	}
	vs := c.AS.Stats()
	if vs.Pins != vs.Unpins {
		t.Fatalf("pins %d != unpins %d: the eager MR leaked", vs.Pins, vs.Unpins)
	}
	// The space must be unmappable — nothing still holds pins.
	if err := c.AS.Unmap(va, 1<<20); err != nil {
		t.Fatalf("unmap after eager release: %v", err)
	}
	// And a second acquire/release cycle still works.
	va2, _ := c.AS.MapSmall(1 << 16)
	mr2, _, err := rc.Acquire(va2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Release(mr2); err != nil {
		t.Fatal(err)
	}
}
