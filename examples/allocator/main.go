// Allocator: drive the Section 3 hugepage library directly through the
// public API — thresholds, hugepage placement, pool exhaustion fallback,
// and the side-by-side trace comparison with libc, libhugetlbfs and
// libhugepagealloc.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	m := repro.Opteron()

	lib, err := repro.NewAllocator(m, "huge")
	if err != nil {
		log.Fatal(err)
	}
	// Below the 32 KiB threshold: delegated to libc (small pages).
	small, err := lib.Alloc(16 << 10)
	if err != nil {
		log.Fatal(err)
	}
	// At/above the threshold: placed in hugepages.
	big, err := lib.Alloc(256 << 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16 KiB request  -> va %#x (small-page heap)\n", uint64(small))
	fmt.Printf("256 KiB request -> va %#x (hugepage window)\n", uint64(big))
	st := lib.Stats()
	fmt.Printf("placement gauge: %d KiB in hugepages, %d KiB in small pages\n\n",
		st.HugeBytes/1024, st.SmallBytes/1024)

	// Same-size free/alloc reuses the block without coalesce/split churn
	// (design point 5 of the paper's library).
	if err := lib.Free(big); err != nil {
		log.Fatal(err)
	}
	again, err := lib.Alloc(256 << 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("free + same-size alloc returns the same address: %v\n", again == big)
	st = lib.Stats()
	fmt.Printf("splits=%d coalesces=%d (no coalescing on the free path)\n\n", st.Splits, st.Coalesces)

	// The headline comparison (E7), one row per allocation library.
	fmt.Printf("Abinit-style trace, all four libraries (%s)\n", m.Name)
	fmt.Printf("%-26s %14s %10s %12s %12s\n", "library", "alloc time", "speedup", "syscalls", "peak huge MB")
	var libcTicks float64
	for _, lib := range []struct{ name, kind string }{
		{"libc", "libc"},
		{"hugepage-library", "huge"},
		{"libhugetlbfs-morecore", "morecore"},
		{"libhugepagealloc", "pagesep"},
	} {
		r, err := repro.AbinitReplay(m, lib.kind)
		if err != nil {
			log.Fatal(err)
		}
		if libcTicks == 0 {
			libcTicks = float64(r.AllocTime)
		}
		fmt.Printf("%-26s %14v %9.1fx %12d %12.1f\n", lib.name, r.AllocTime,
			libcTicks/float64(r.AllocTime), r.Stats.Syscalls,
			float64(r.Stats.PeakLive)/float64(1<<20))
	}
	fmt.Println(`paper (Section 2): "we measured allocation benefits of up to 10 times"`)
	fmt.Println("note: libhugepagealloc is additionally not thread safe (modelled; see DESIGN.md)")
}
