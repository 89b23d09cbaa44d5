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

// entry is one TLB slot, 16 bytes. age is the LRU stamp: it is set from
// the file's tick, which is never 0 once an access has begun, so age 0
// marks an empty slot.
type entry struct {
	vpn uint64
	age uint64
}

// File is one set-associative entry file for a single page size. Its
// entries are one flat array, set s holding ents[s*ways : (s+1)*ways].
// The array is allocated on the first access: a file that is never
// looked up costs only its header.
type File struct {
	geo   machine.TLBGeometry
	ents  []entry
	tick  uint64
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
	return &File{geo: geo}
}

// set returns the ways vpn maps to, allocating the entry array on first
// use.
func (f *File) set(vpn uint64) []entry {
	if f.ents == nil {
		f.ents = make([]entry, f.geo.Entries)
	}
	w := f.geo.Ways
	lo := int(vpn%uint64(f.geo.Entries/w)) * w
	return f.ents[lo : lo+w : lo+w]
}

// Access looks up a virtual page number; on a miss the LRU way of the set
// is replaced. It reports whether the access hit.
func (f *File) Access(vpn uint64) bool {
	f.tick++
	set := f.set(vpn)
	for i := range set {
		if set[i].age != 0 && set[i].vpn == vpn {
			set[i].age = f.tick
			f.stats.Hits++
			return true
		}
	}
	victim := 0
	for i := range set {
		if set[i].age == 0 {
			victim = i
			break
		}
		if set[i].age < set[victim].age {
			victim = i
		}
	}
	set[victim] = entry{vpn: vpn, age: f.tick}
	f.stats.Misses++
	return false
}

// InvalidateRange drops every entry whose vpn lies in [lo, hi) — the
// targeted shootdown a hugepage demotion issues for the split range,
// cheaper than a full Flush and without perturbing unrelated entries.
func (f *File) InvalidateRange(lo, hi uint64) {
	for i := range f.ents {
		if f.ents[i].age != 0 && f.ents[i].vpn >= lo && f.ents[i].vpn < hi {
			f.ents[i] = entry{}
		}
	}
}

// Flush invalidates every entry (context switch / munmap shootdown).
func (f *File) Flush() { clear(f.ents) }

// Stats returns the counters.
func (f *File) Stats() FileStats { return f.stats }

// ResetStats clears the counters without touching the entries.
func (f *File) ResetStats() { f.stats = FileStats{} }

// Geometry returns the file's geometry.
func (f *File) Geometry() machine.TLBGeometry { return f.geo }

// Reach returns the bytes of address space the file can map.
func (f *File) Reach(pageSize uint64) uint64 {
	return uint64(f.geo.Entries) * pageSize
}

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

// Access performs one data access at va with the given page class and
// returns the time penalty (0 on hit, the walk cost on a miss).
func (d *DTLB) Access(va vm.VA, class vm.PageClass) simtime.Ticks {
	if class == vm.Huge {
		if d.Large.Access(uint64(va) / machine.HugePageSize) {
			return 0
		}
		return d.walk
	}
	if d.Small.Access(uint64(va) / machine.SmallPageSize) {
		return 0
	}
	return d.walk
}

// Misses reports total misses across both files.
func (d *DTLB) Misses() int64 {
	return d.Small.Stats().Misses + d.Large.Stats().Misses
}

// Flush empties both files.
func (d *DTLB) Flush() {
	d.Small.Flush()
	d.Large.Flush()
}

// ResetStats clears both files' counters.
func (d *DTLB) ResetStats() {
	d.Small.ResetStats()
	d.Large.ResetStats()
}

// WalkTicks exposes the per-miss penalty (for analytic models that must
// agree with the simulator).
func (d *DTLB) WalkTicks() simtime.Ticks { return d.walk }
