package alloc_test

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/machine"
	"repro/internal/node/nodetest"
	"repro/internal/vm"
)

func newAS(t testing.TB) *vm.AddressSpace {
	t.Helper()
	return nodetest.New(t, machine.SystemP()).AS // big hugepage pool
}

const sysTicks = 1300

func newHugeT(t testing.TB, as *vm.AddressSpace) *alloc.Huge {
	t.Helper()
	h, err := alloc.NewHuge(as, sysTicks, alloc.DefaultHugeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// allocators under test, by constructor.
func allAllocators(t testing.TB) map[string]alloc.Allocator {
	return map[string]alloc.Allocator{
		"libc":     alloc.NewLibc(newAS(t), sysTicks),
		"huge":     newHugeT(t, newAS(t)),
		"morecore": alloc.NewMorecore(newAS(t), sysTicks),
		"pagesep":  alloc.NewPageSep(newAS(t), sysTicks),
	}
}

// sortedNonOverlapping checks the hugepage freelist invariant: spans in
// strictly increasing address order, never overlapping.
func sortedNonOverlapping(spans []alloc.FreeSpan, strict bool) bool {
	for i := 1; i < len(spans); i++ {
		if strict && spans[i-1].VA >= spans[i].VA {
			return false
		}
		if spans[i-1].VA+vm.VA(spans[i-1].Size) > spans[i].VA {
			return false
		}
	}
	return true
}

func TestBasicAllocFreeAllModels(t *testing.T) {
	for name, a := range allAllocators(t) {
		t.Run(name, func(t *testing.T) {
			va, err := a.Alloc(100 << 10)
			if err != nil {
				t.Fatal(err)
			}
			if a.UsableSize(va) < 100<<10 {
				t.Fatalf("usable size %d < requested", a.UsableSize(va))
			}
			if err := a.Free(va); err != nil {
				t.Fatal(err)
			}
			if err := a.Free(va); !errors.Is(err, alloc.ErrNotAllocated) {
				t.Fatalf("double free: got %v", err)
			}
			if _, err := a.Alloc(0); !errors.Is(err, alloc.ErrBadSize) {
				t.Fatalf("zero alloc: got %v", err)
			}
			st := a.Stats()
			if st.LiveBytes != 0 {
				t.Fatalf("leaked %d live bytes", st.LiveBytes)
			}
		})
	}
}

func TestHugeThresholdRouting(t *testing.T) {
	h := newHugeT(t, newAS(t))
	small, err := h.Alloc(16 << 10) // below 32 KiB
	if err != nil {
		t.Fatal(err)
	}
	if vm.IsHugeVA(small) {
		t.Fatal("16KiB request was placed in hugepages")
	}
	big, err := h.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.IsHugeVA(big) {
		t.Fatal("64KiB request was not placed in hugepages")
	}
	// Exactly at the threshold goes huge ("smaller than 32 kb ... libc").
	edge, err := h.Alloc(32 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.IsHugeVA(edge) {
		t.Fatal("32KiB request should be hugepage-placed")
	}
	for _, va := range []vm.VA{small, big, edge} {
		if err := h.Free(va); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHugeNoCoalesceOnFree(t *testing.T) {
	h := newHugeT(t, newAS(t))
	a, _ := h.Alloc(64 << 10)
	b, _ := h.Alloc(64 << 10)
	c, _ := h.Alloc(64 << 10)
	_ = h.Free(a)
	_ = h.Free(b)
	_ = h.Free(c)
	// Three adjacent frees + the growth remainder must remain separate
	// nodes (no coalescing on free).
	if got := h.FreeListLen(); got < 4 {
		t.Fatalf("freelist length %d: frees were coalesced", got)
	}
	if h.Stats().Coalesces != 0 {
		t.Fatal("coalesce performed on free path")
	}
	// Same-size realloc reuses a freed block without splitting again.
	splitsBefore := h.Stats().Splits
	d, _ := h.Alloc(64 << 10)
	if h.Stats().Splits != splitsBefore {
		t.Fatal("same-size reuse should not split")
	}
	if d != a {
		t.Fatalf("address-ordered first fit should reuse lowest block: got %#x want %#x", uint64(d), uint64(a))
	}
}

func TestHugeLazyCoalesceSatisfiesBigRequest(t *testing.T) {
	as := newAS(t)
	cfg := alloc.DefaultHugeConfig()
	cfg.MapBatchPages = 1
	h, err := alloc.NewHuge(as, sysTicks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill one hugepage with 32 x 64KiB, free all, then ask for 2 MiB.
	var vas []vm.VA
	for i := 0; i < 32; i++ {
		va, err := h.Alloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	for _, va := range vas {
		_ = h.Free(va)
	}
	used := as.Stats().MappedHuge
	big, err := h.Alloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if as.Stats().MappedHuge != used {
		t.Fatal("lazy coalescing should have satisfied the request without new mappings")
	}
	if h.Stats().Coalesces == 0 {
		t.Fatal("no lazy coalesce recorded")
	}
	_ = h.Free(big)
}

func TestHugeAddressOrderedFirstFit(t *testing.T) {
	h := newHugeT(t, newAS(t))
	a, _ := h.Alloc(128 << 10)
	b, _ := h.Alloc(128 << 10)
	_, _ = h.Alloc(64 << 10) // plug so freelist has a gap
	_ = h.Free(b)
	_ = h.Free(a)
	got, _ := h.Alloc(100 << 10)
	if got != a {
		t.Fatalf("first fit should pick the lowest address %#x, got %#x", uint64(a), uint64(got))
	}
}

func TestHugeFallbackWhenPoolExhausted(t *testing.T) {
	n := nodetest.New(t, machine.Opteron())
	mem, as := n.Mem, n.AS
	cfg := alloc.DefaultHugeConfig()
	cfg.ReservePages = 0
	h, err := alloc.NewHuge(as, sysTicks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Reserve(mem.HugeTotal()); err != nil { // simulate exhausted pool
		t.Fatal(err)
	}
	va, err := h.Alloc(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if vm.IsHugeVA(va) {
		t.Fatal("allocation should have fallen back to small pages")
	}
	if h.Stats().FallbackToSmall != 1 {
		t.Fatal("fallback not counted")
	}
	if err := h.Free(va); err != nil {
		t.Fatalf("free of fallback block: %v", err)
	}
}

func TestHugeReserveIsInstalled(t *testing.T) {
	n := nodetest.New(t, machine.Opteron())
	mem, as := n.Mem, n.AS
	cfg := alloc.DefaultHugeConfig()
	cfg.ReservePages = 100
	if _, err := alloc.NewHuge(as, sysTicks, cfg); err != nil {
		t.Fatal(err)
	}
	if got := mem.HugeAvailable(); got != mem.HugeTotal()-100 {
		t.Fatalf("reserve not installed: available %d", got)
	}
}

func TestLibcCoalescesAndReusesArena(t *testing.T) {
	l := alloc.NewLibc(newAS(t), sysTicks)
	a, _ := l.Alloc(40 << 10)
	b, _ := l.Alloc(40 << 10)
	_ = l.Free(a)
	_ = l.Free(b)
	if l.Stats().Coalesces == 0 {
		t.Fatal("libc model must coalesce adjacent frees")
	}
	// After coalescing, an 80 KiB request fits without growing the arena.
	sys := l.Stats().Syscalls
	c, err := l.Alloc(80 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stats().Syscalls != sys {
		t.Fatal("coalesced space should satisfy the request without sbrk")
	}
	_ = l.Free(c)
}

func TestLibcMmapThreshold(t *testing.T) {
	as := newAS(t)
	l := alloc.NewLibc(as, sysTicks)
	va, err := l.Alloc(256 << 10) // above 128 KiB threshold
	if err != nil {
		t.Fatal(err)
	}
	regsBefore := len(as.Regions())
	if err := l.Free(va); err != nil {
		t.Fatal(err)
	}
	if len(as.Regions()) != regsBefore-1 {
		t.Fatal("mmap'd block was not unmapped on free")
	}
}

func TestMorecorePlacesEverythingInHugepages(t *testing.T) {
	m := alloc.NewMorecore(newAS(t), sysTicks)
	small, _ := m.Alloc(64)      // tiny
	big, _ := m.Alloc(512 << 10) // mmap path
	mid, _ := m.Alloc(100 << 10) // heap path
	for _, va := range []vm.VA{small, big, mid} {
		if !vm.IsHugeVA(va) {
			t.Fatalf("morecore model leaked %#x to small pages", uint64(va))
		}
	}
}

func TestPageSepSeparateHugepages(t *testing.T) {
	p := alloc.NewPageSep(newAS(t), sysTicks)
	a, _ := p.Alloc(1000)
	b, _ := p.Alloc(1000)
	if uint64(a)/machine.HugePageSize == uint64(b)/machine.HugePageSize {
		t.Fatal("two buffers share a hugepage; libhugepagealloc never does")
	}
	if p.ThreadSafe() {
		t.Fatal("pagesep models a thread-unsafe library")
	}
	// 1000-byte buffer burns a whole hugepage.
	if p.Stats().HugeBytes != 2*machine.HugePageSize {
		t.Fatalf("waste accounting wrong: %d", p.Stats().HugeBytes)
	}
}

// Property: across random traces, no allocator ever returns overlapping
// live blocks, and live-byte accounting returns to zero.
func TestQuickNoOverlapAllModels(t *testing.T) {
	for name, a := range allAllocators(t) {
		a := a
		t.Run(name, func(t *testing.T) {
			type blk struct{ va, size uint64 }
			var live []blk
			overlaps := func(x blk) bool {
				for _, y := range live {
					if x.va < y.va+y.size && y.va < x.va+x.size {
						return true
					}
				}
				return false
			}
			f := func(szRaw uint16, doFree bool) bool {
				if doFree && len(live) > 0 {
					b := live[0]
					live = live[1:]
					return a.Free(vm.VA(b.va)) == nil
				}
				sz := uint64(szRaw)%(256<<10) + 1
				va, err := a.Alloc(sz)
				if err != nil {
					return false
				}
				nb := blk{uint64(va), a.UsableSize(va)}
				if nb.size < sz || overlaps(nb) {
					return false
				}
				live = append(live, nb)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
			for _, b := range live {
				if err := a.Free(vm.VA(b.va)); err != nil {
					t.Fatal(err)
				}
			}
			if a.Stats().LiveBytes != 0 {
				t.Fatalf("live bytes %d after full teardown", a.Stats().LiveBytes)
			}
		})
	}
}

// Property: the hugepage freelist stays address-sorted through any
// alloc/free interleaving.
func TestQuickFreelistStaysSorted(t *testing.T) {
	h := newHugeT(t, newAS(t))
	var live []vm.VA
	f := func(szRaw uint16, doFree bool) bool {
		if doFree && len(live) > 0 {
			va := live[len(live)-1]
			live = live[:len(live)-1]
			if h.Free(va) != nil {
				return false
			}
		} else {
			sz := 32<<10 + uint64(szRaw)
			va, err := h.Alloc(sz)
			if err != nil {
				return false
			}
			live = append(live, va)
		}
		return sortedNonOverlapping(h.FreeSpans(), true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRoundTrip(t *testing.T) {
	h := newHugeT(t, newAS(t))
	ops := []alloc.TraceOp{
		{Alloc: true, Size: 64 << 10, Slot: 0},
		{Alloc: true, Size: 128 << 10, Slot: 1},
		{Alloc: false, Slot: 0},
		{Alloc: true, Size: 64 << 10, Slot: 0},
		{Alloc: true, Size: 8 << 10, Slot: 2}, // small path
	}
	res, err := alloc.Replay(h, ops, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != len(ops) {
		t.Fatal("op count wrong")
	}
	if res.Stats.LiveBytes != 0 {
		t.Fatal("replay teardown leaked")
	}
	if res.AllocTime <= 0 {
		t.Fatal("allocation must consume time")
	}
}

func TestReplayBadSlot(t *testing.T) {
	h := newHugeT(t, newAS(t))
	if _, err := alloc.Replay(h, []alloc.TraceOp{{Alloc: true, Size: 1, Slot: 5}}, 2); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestHugeChunkRounding(t *testing.T) {
	h := newHugeT(t, newAS(t))
	va, _ := h.Alloc(33 << 10) // not a chunk multiple
	if got := h.UsableSize(va); got%h.Config().ChunkSize != 0 {
		t.Fatalf("usable size %d not chunk-granular", got)
	}
	_ = h.Free(va)
}

func TestMapBSS(t *testing.T) {
	h := newHugeT(t, newAS(t))
	va, huge, err := h.MapBSS(10 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !huge || !vm.IsHugeVA(va) {
		t.Fatal("BSS should land in hugepages when the pool allows")
	}
	if h.UsableSize(va) < 10<<20 {
		t.Fatal("BSS usable size too small")
	}
}

// The paper stresses that its library — unlike libhugepagealloc — is
// thread safe. Hammer it from many goroutines and check the invariants
// hold (make race and CI run it under -race to catch data races too).
// The address space and frame pool below take no lock of their own, so
// the library must serialise every path into them: the hugepage tiers,
// the sub-threshold libc delegate and the libc redirect of a dry pool.
func TestHugeThreadSafety(t *testing.T) {
	t.Run("hugepages", func(t *testing.T) {
		// Every request is at or above the 32 KiB threshold and the pool
		// never runs dry.
		h := newHugeT(t, newAS(t))
		hammerHuge(t, h, 8, func(w, i int) uint64 {
			return uint64(32<<10 + (w*977+i*131)%(256<<10))
		})
	})
	t.Run("fallback", func(t *testing.T) {
		// Even workers stay below the threshold, so libc serves them and
		// grows its arena. Odd workers stay above it and keep every block
		// until the end, so the library maps hugepages until its 8-page
		// pool runs dry and then redirects them to libc too.
		n := nodetest.New(t, machine.Opteron())
		h := newHugeT(t, n.AS)
		if err := n.Mem.Reserve(n.Mem.HugeAvailable() - 8); err != nil {
			t.Fatal(err)
		}
		hammerHuge(t, h, rounds, func(w, i int) uint64 {
			if w%2 == 0 {
				return uint64(1<<10 + (w*977+i*4093)%(31<<10))
			}
			return uint64(32<<10 + (w*977+i*4093)%(256<<10))
		})
		if h.Stats().FallbackToSmall == 0 {
			t.Fatal("the pool never ran dry; the libc redirect went untested")
		}
	})
}

// workers goroutines make rounds allocations each in hammerHuge.
const workers, rounds = 8, 200

// hammerHuge runs the workers concurrently, worker w's i-th request
// being size(w, i) bytes. Each frees its oldest block whenever it holds
// more than live, and the rest at the end. Then nothing may have leaked
// and the freelist must be intact.
func hammerHuge(t *testing.T, h *alloc.Huge, live int, size func(w, i int) uint64) {
	t.Helper()
	var wg sync.WaitGroup //reprolint:ignore schedonly: real-thread stress test of the paper's thread-safety claim
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { //reprolint:ignore schedonly: real-thread stress test, not simulation code
			defer wg.Done()
			var mine []vm.VA
			for i := 0; i < rounds; i++ {
				va, err := h.Alloc(size(w, i))
				if err != nil {
					errs[w] = err
					return
				}
				mine = append(mine, va)
				if len(mine) > live {
					if err := h.Free(mine[0]); err != nil {
						errs[w] = err
						return
					}
					mine = mine[1:]
				}
			}
			for _, va := range mine {
				if err := h.Free(va); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if live := h.Stats().LiveBytes; live != 0 {
		t.Fatalf("leaked %d bytes under concurrency", live)
	}
	// Freelist must still be sorted and non-overlapping.
	if !sortedNonOverlapping(h.FreeSpans(), false) {
		t.Fatal("freelist corrupted under concurrency")
	}
}
