// Package memmodel turns memory-access patterns into compute time and
// TLB behaviour — the substrate behind the paper's Section 5.2 findings:
// hugepages can raise TLB misses dramatically (up to 8x on NAS EP,
// because the Opteron has only 8 hugepage DTLB entries) while
// simultaneously speeding computation up (the prefetcher streams across
// large physically contiguous extents without restarting at every 4 KiB
// physical discontinuity).
//
// Patterns drive the rank's actual tlb.DTLB simulator with a
// deterministic sample of the access stream (capped, then scaled), so
// PAPI-style counters come from simulation rather than formulas; the
// prefetch model is analytic and documented per pattern.
package memmodel

import (
	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// sampleCap bounds how many accesses are simulated per Apply call; the
// remainder is scaled from the sampled miss rate. Large enough that
// set-associativity effects settle, small enough to keep NAS runs fast.
const sampleCap = 1 << 15

// restartLines is how many cache lines a hardware prefetch stream needs
// to re-arm after hitting a physical discontinuity; during re-arming the
// full line cost is paid.
const restartLines = 4

// Result is the outcome of applying one pattern.
type Result struct {
	Accesses  int64 // cache-line touches issued
	TLBMisses int64 // estimated DTLB misses over the full stream
	Hidden    int64 // line touches whose latency the prefetcher hid
	Ticks     simtime.Ticks
}

// Region describes one buffer as placed in memory.
type Region struct {
	VA    vm.VA
	Bytes uint64
	Class vm.PageClass
}

// PageSize returns the region's translation granule.
func (rg Region) PageSize() uint64 { return rg.Class.Size() }

// Pattern is one memory-access behaviour.
type Pattern interface {
	// Apply charges the pattern against the CPU + DTLB and returns the
	// modelled result. The DTLB's counters advance by the *sampled*
	// accesses; Result.TLBMisses is the scaled full-stream estimate.
	Apply(cpu *machine.CPU, d *tlb.DTLB, rg Region) Result
}

// sampled returns how many accesses of a total-access stream are driven
// through the DTLB. Each pattern simulates that prefix of its stream and
// scales the misses by total/sampled: prefix sampling keeps the access
// distribution intact (strided subsampling would alias with periodic
// patterns like table rotation).
func sampled(total int64) int64 { return min(total, sampleCap) }

// lineCost returns the tick cost of the line touches minus the prefetch-
// hidden fraction, plus the TLB walk penalty.
func lineCost(cpu *machine.CPU, lines, hidden, misses int64) simtime.Ticks {
	visible := lines - hidden
	if visible < 0 {
		visible = 0
	}
	return simtime.Ticks(visible)*cpu.LineTicks +
		simtime.Ticks(hidden)*cpu.LineTicks/8 + // hidden lines still retire
		simtime.Ticks(misses)*cpu.WalkTicks
}

// SeqScan streams sequentially over the region Passes times — the dense
// loops of CG/MG/LU. The prefetcher hides CPU.PrefetchHit of line
// latency, but every physical discontinuity (a page boundary on 4 KiB
// mappings, a 2 MiB boundary on hugepages) forces a stream restart that
// exposes restartLines full-cost lines; this is where hugepages win
// compute time.
type SeqScan struct {
	Passes int
}

// Apply implements Pattern.
func (s SeqScan) Apply(cpu *machine.CPU, d *tlb.DTLB, rg Region) Result {
	passes := int64(s.Passes)
	if passes <= 0 || rg.Bytes == 0 {
		return Result{}
	}
	linesPerPass := int64(rg.Bytes+machine.CacheLineSize-1) / machine.CacheLineSize
	lines := linesPerPass * passes
	pagesPerPass := int64((rg.Bytes + rg.PageSize() - 1) / rg.PageSize())
	totalPageTouches := pagesPerPass * passes
	// Pass after pass, page idx of the region is page number first+idx.
	f, shift := d.File(rg.Class)
	first := uint64(rg.VA) >> shift
	n := sampled(totalPageTouches)
	var misses int64
	for i := int64(0); i < n; i++ {
		if !f.Access(first + uint64(i%pagesPerPass)) {
			misses++
		}
	}
	misses = misses * totalPageTouches / n
	restarts := totalPageTouches // one stream restart per physical extent boundary
	exposed := restarts * restartLines
	if exposed > lines {
		exposed = lines
	}
	hidden := int64(float64(lines-exposed) * cpu.PrefetchHit)
	return Result{
		Accesses:  lines,
		TLBMisses: misses,
		Hidden:    hidden,
		Ticks:     lineCost(cpu, lines, hidden, misses),
	}
}

// Strided touches one line every Stride bytes, Passes times — matrix
// column walks (LU). Prefetchers track constant strides up to a limit, so
// long strides lose prefetch help entirely.
type Strided struct {
	Stride uint64
	Passes int
}

// maxPrefetchStride is the largest stride hardware stream detectors track.
const maxPrefetchStride = 512

// Apply implements Pattern.
func (s Strided) Apply(cpu *machine.CPU, d *tlb.DTLB, rg Region) Result {
	if s.Stride == 0 || rg.Bytes == 0 || s.Passes <= 0 {
		return Result{}
	}
	perPass := int64(rg.Bytes / s.Stride)
	if perPass == 0 {
		perPass = 1
	}
	total := perPass * int64(s.Passes)
	f, shift := d.File(rg.Class)
	n := sampled(total)
	var misses int64
	for i := int64(0); i < n; i++ {
		idx := i % perPass
		if !f.Access(uint64(rg.VA+vm.VA(uint64(idx)*s.Stride)) >> shift) {
			misses++
		}
	}
	misses = misses * total / n
	var hidden int64
	if s.Stride <= maxPrefetchStride {
		// Same restart logic as SeqScan, but restarts happen per page
		// regardless of stride (fewer useful lines between restarts).
		restarts := total * int64(s.Stride) / int64(rg.PageSize())
		exposed := restarts * restartLines
		if exposed > total {
			exposed = total
		}
		hidden = int64(float64(total-exposed) * cpu.PrefetchHit)
	}
	return Result{
		Accesses:  total,
		TLBMisses: misses,
		Hidden:    hidden,
		Ticks:     lineCost(cpu, total, hidden, misses),
	}
}

// Random touches Count lines uniformly pseudo-randomly over the region —
// IS histogramming, CG's indirect gathers. No prefetch help; TLB
// behaviour is pure working-set vs reach.
type Random struct {
	Count int64
	Seed  uint64
}

// Apply implements Pattern.
func (r Random) Apply(cpu *machine.CPU, d *tlb.DTLB, rg Region) Result {
	if r.Count <= 0 || rg.Bytes == 0 {
		return Result{}
	}
	state := r.Seed*2862933555777941757 + 3037000493
	lines := rg.Bytes / machine.CacheLineSize
	f, shift := d.File(rg.Class)
	n := sampled(r.Count)
	var misses int64
	for i := int64(0); i < n; i++ {
		x := state + uint64(i)*0x9E3779B97F4A7C15
		x ^= x >> 31
		x *= 0xD6E8FEB86659FD93
		x ^= x >> 27
		off := (x % lines) * machine.CacheLineSize
		if !f.Access(uint64(rg.VA+vm.VA(off)) >> shift) {
			misses++
		}
	}
	misses = misses * r.Count / n
	return Result{
		Accesses:  r.Count,
		TLBMisses: misses,
		Ticks:     lineCost(cpu, r.Count, 0, misses),
	}
}

// ScatteredTables models EP-style access: Count touches rotating over
// NumTables small hot tables, each TableBytes big, spread out so each
// lands in a different page mapping. In small pages every table needs a
// handful of the 544 entries — all hits. In hugepages each table burns a
// whole entry of the tiny hugepage file, and with NumTables above its
// capacity the file thrashes: the 8x EP miss blowup of Section 5.2.
type ScatteredTables struct {
	NumTables  int
	TableBytes uint64
	Count      int64
	// SpreadBytes is the VA distance between consecutive tables within
	// the region (defaults to one hugepage so each table sits in its own
	// hugepage mapping).
	SpreadBytes uint64
}

// Apply implements Pattern.
func (sc ScatteredTables) Apply(cpu *machine.CPU, d *tlb.DTLB, rg Region) Result {
	if sc.Count <= 0 || sc.NumTables <= 0 {
		return Result{}
	}
	spread := sc.SpreadBytes
	if spread == 0 {
		spread = machine.HugePageSize
	}
	f, shift := d.File(rg.Class)
	n := sampled(sc.Count)
	var misses int64
	for i := int64(0); i < n; i++ {
		table := uint64(i) % uint64(sc.NumTables)
		off := (uint64(i) * 67 * machine.CacheLineSize) % sc.TableBytes
		if !f.Access(uint64(rg.VA+vm.VA(table*spread+off)) >> shift) {
			misses++
		}
	}
	misses = misses * sc.Count / n
	// Hot tables live in cache; line touches are cheap, misses dominate.
	hidden := sc.Count * 7 / 8
	return Result{
		Accesses:  sc.Count,
		TLBMisses: misses,
		Hidden:    hidden,
		Ticks:     lineCost(cpu, sc.Count, hidden, misses),
	}
}
