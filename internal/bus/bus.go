// Package bus models the IO path between host memory and the HCA:
// PCI-Express, PCI-X or GX. Costs have three components — a fixed
// per-transaction latency, a bandwidth term, and alignment effects.
//
// The alignment model is the mechanism behind Figure 4 of the paper:
// posting the same small send with different buffer offsets inside a page
// changes the work-request duration by up to 8 %, with a sweet spot near
// offset 64. The paper observes this empirically ("It appears that the
// memory access of the InfiniBand adapter or the underlying system I/O bus
// is optimized for certain offsets, e.g. at offset 64") without giving the
// mechanism; we reproduce it from three plausible micro-effects, documented
// on DMACost, and treat the fit as empirical.
package bus

import (
	"repro/internal/machine"
	"repro/internal/simtime"
)

// Model evaluates DMA costs for one bus.
type Model struct {
	Bus machine.Bus
}

// New builds a cost model for the given bus description.
func New(b machine.Bus) *Model { return &Model{Bus: b} }

// lineCost is the transfer time of one 64-byte cache line at the bus
// bandwidth.
func (m *Model) lineCost() simtime.Ticks {
	return simtime.BandwidthTicks(machine.CacheLineSize, m.Bus.BandwidthMBs)
}

// DMACost is the cost for the adapter to read (or write) n bytes that
// start at byte offset pageOff within a page. Three effects:
//
//   - per-cacheline transfer: the memory controller moves whole 64-byte
//     lines, so a buffer that straddles an extra line boundary pays for an
//     extra line (offsets that are multiples of 64 minimise lines touched);
//   - sub-word start: a start address not aligned to 8 bytes forces
//     byte-enable cycles on the first beat (small fixed penalty);
//   - first-line contention: transfers beginning in the first line of a
//     page collide with the adapter's descriptor prefetch of that line and
//     pay AlignPenalty — this is what makes offset 64 beat offset 0 and
//     produces the paper's sweet spot.
func (m *Model) DMACost(pageOff uint64, n int) simtime.Ticks {
	if n <= 0 {
		return 0
	}
	lineOff := pageOff % machine.CacheLineSize
	lines := (int(lineOff) + n + machine.CacheLineSize - 1) / machine.CacheLineSize
	cost := m.Bus.TxnTicks + simtime.Ticks(lines)*m.lineCost()
	if pageOff%8 != 0 {
		cost += m.Bus.AlignPenalty / 2
	}
	if pageOff%machine.SmallPageSize < machine.CacheLineSize {
		cost += m.Bus.AlignPenalty
	}
	return cost
}
