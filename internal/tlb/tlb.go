// Package tlb simulates a data TLB with split entry files for 4 KiB and
// 2 MiB pages, the structure behind the paper's central caveat: the AMD
// Opteron has 544 small-page entries but only 8 hugepage entries, so
// placing everything in hugepages can *increase* TLB misses — up to eight
// times on NAS EP (Section 5.2) — even while communication improves.
package tlb

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// empty marks a way that holds no translation. Page numbers are a
// 64-bit virtual address shifted right by the page shift (va>>12 or
// va>>21), so a real one never reaches it; a caller that passed it to
// Access would hit an empty way.
const empty = ^uint64(0)

// smallShift and hugeShift turn a virtual address into its page number
// in the small-page and the hugepage file.
const (
	smallShift = 12 // log2(machine.SmallPageSize)
	hugeShift  = 21 // log2(machine.HugePageSize)
)

// File is one set-associative entry file for a single page size. Its
// ways are one flat array of page numbers, set s holding
// ents[s*ways : (s+1)*ways] in recency order: the most recently used
// way first, empty ways last. That order is the LRU state, so a way is
// one 8-byte page number with no age stamp. The array is allocated on
// the first access: a file that is never looked up costs only its
// header.
type File struct {
	geo   machine.TLBGeometry
	nsets uint64
	ents  []uint64
	stats FileStats
}

// FileStats counts accesses for one entry file.
type FileStats struct {
	Hits   int64
	Misses int64
}

// Accesses returns the total access count.
func (s FileStats) Accesses() int64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses, or 0 for an untouched file.
func (s FileStats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// NewFile builds an entry file from a geometry description.
func NewFile(geo machine.TLBGeometry) *File {
	if geo.Ways <= 0 || geo.Entries <= 0 || geo.Entries%geo.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %+v", geo))
	}
	return &File{geo: geo, nsets: uint64(geo.Entries / geo.Ways)}
}

// set returns the ways vpn maps to, allocating the entry array on first
// use.
func (f *File) set(vpn uint64) []uint64 {
	if f.ents == nil {
		f.ents = make([]uint64, f.geo.Entries)
		f.Flush()
	}
	w := f.geo.Ways
	lo := int(vpn%f.nsets) * w
	return f.ents[lo : lo+w : lo+w]
}

// Access looks up a virtual page number and reports whether it hit. A
// hit moves its way to the front of the set; a miss shifts the set down
// one way, dropping the least recently used, and puts vpn in front.
func (f *File) Access(vpn uint64) bool {
	set := f.set(vpn)
	for i, v := range set {
		if v == vpn {
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = vpn
			f.stats.Hits++
			return true
		}
	}
	for i := len(set) - 1; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = vpn
	f.stats.Misses++
	return false
}

// InvalidateRange drops every entry whose vpn lies in [lo, hi) — the
// targeted shootdown a hugepage demotion issues for the split range,
// cheaper than a full Flush and without perturbing unrelated entries.
// Each set keeps its surviving ways in recency order, moved to the
// front. No range reaches the empty marker, so empty ways need no test
// of their own.
func (f *File) InvalidateRange(lo, hi uint64) {
	w := f.geo.Ways
	for s := 0; s < len(f.ents); s += w {
		set := f.ents[s : s+w]
		k := 0
		for _, v := range set {
			if v < lo || v >= hi {
				set[k] = v
				k++
			}
		}
		for ; k < len(set); k++ {
			set[k] = empty
		}
	}
}

// Flush invalidates every entry (context switch / munmap shootdown).
func (f *File) Flush() {
	for i := range f.ents {
		f.ents[i] = empty
	}
}

// Stats returns the counters.
func (f *File) Stats() FileStats { return f.stats }

// DTLB is the full data TLB of one core: one file per page size plus the
// walk penalty charged on each miss.
type DTLB struct {
	Small *File
	Large *File
	walk  simtime.Ticks
}

// New builds the DTLB of the given CPU.
func New(cpu *machine.CPU) *DTLB {
	return &DTLB{
		Small: NewFile(cpu.TLB4K),
		Large: NewFile(cpu.TLB2M),
		walk:  cpu.WalkTicks,
	}
}

// File returns the entry file that serves the given page class and the
// shift that turns a virtual address into its page number there.
func (d *DTLB) File(class vm.PageClass) (*File, uint) {
	if class == vm.Huge {
		return d.Large, hugeShift
	}
	return d.Small, smallShift
}

// Access performs one data access at va with the given page class and
// returns the time penalty (0 on hit, the walk cost on a miss).
func (d *DTLB) Access(va vm.VA, class vm.PageClass) simtime.Ticks {
	f, shift := d.File(class)
	if f.Access(uint64(va) >> shift) {
		return 0
	}
	return d.walk
}
