// Package hca models a protocol-offloading InfiniBand host channel
// adapter: memory regions with a memory translation table (MTT), an
// on-adapter address-translation cache (ATT), work-request posting costs,
// scatter/gather DMA, and the wire.
//
// The model is split in the middle of the wire: each simulated process
// owns one HCA, and the MPI layer (or a benchmark) coordinates the two
// sides' virtual clocks. The HCA computes durations and moves real bytes;
// it never blocks.
//
// Cost structure reproduced from the paper:
//
//   - Posting a work request costs a doorbell plus WQE build that grows
//     only mildly with the number of scatter/gather elements — Figure 3
//     ("the time consumption by using 128 SGEs is only three times higher
//     than with one SGE").
//   - Each SGE's payload is fetched by DMA with per-cacheline and
//     alignment costs — Figure 4.
//   - Every page touched needs a translation; the ATT caches them and a
//     miss costs a bus round trip to host memory. Hugepage-granularity
//     MTT entries (the paper's OpenIB patch) cut the entry count 512-fold.
package hca

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Errors.
var (
	ErrBadKey      = errors.New("hca: unknown memory key")
	ErrOutOfBounds = errors.New("hca: SGE outside memory region")
)

// SGE is one scatter/gather element of a work request.
type SGE struct {
	Addr   vm.VA
	Length uint32
	LKey   uint32
}

// TotalLen sums the byte lengths of a gather list.
func TotalLen(sges []SGE) int {
	n := 0
	for _, s := range sges {
		n += int(s.Length)
	}
	return n
}

// MR is a registered memory region as the adapter sees it: a key pair and
// a run of MTT entries translating the region page by page.
type MR struct {
	LKey, RKey uint32
	Base       vm.VA
	Length     uint64
	// PageShift is the translation granularity the driver installed:
	// 12 for 4 KiB entries, 21 for 2 MiB entries.
	PageShift uint
	// entries[i] is the physical address of page i of the region.
	entries []phys.Addr
}

// NumEntries reports how many MTT entries the region occupies — the count
// the driver had to push to the adapter at registration time.
func (mr *MR) NumEntries() int { return len(mr.entries) }

// pageSize is the granularity of this MR's translations.
func (mr *MR) pageSize() uint64 { return 1 << mr.PageShift }

// translate resolves va (which must fall inside the region) to a physical
// address and the MTT entry index used.
func (mr *MR) translate(va vm.VA) (phys.Addr, int, error) {
	if va < mr.Base || uint64(va) >= uint64(mr.Base)+mr.Length {
		return 0, 0, fmt.Errorf("%w: va %#x not in [%#x,%#x)", ErrOutOfBounds,
			uint64(va), uint64(mr.Base), uint64(mr.Base)+mr.Length)
	}
	// The MTT is indexed from the page-aligned start of the region.
	alignedBase := uint64(mr.Base) &^ (mr.pageSize() - 1)
	idx := int((uint64(va) - alignedBase) >> mr.PageShift)
	if idx >= len(mr.entries) {
		return 0, 0, fmt.Errorf("%w: page index %d of %d", ErrOutOfBounds, idx, len(mr.entries))
	}
	off := uint64(va) & (mr.pageSize() - 1)
	return mr.entries[idx] + phys.Addr(off), idx, nil
}

// Stats counts adapter activity.
type Stats struct {
	PostedWRs    int64
	CQEs         int64
	ATTHits      int64
	ATTMisses    int64
	BytesGather  int64
	BytesScatter int64
	MTTEntries   int64 // gauge: currently installed
	ATTEvictions int64 // translations dropped by injected forced eviction
}

// HCA is one adapter instance.
type HCA struct {
	mach *machine.Machine
	bus  *bus.Model
	mem  *phys.Memory

	// inj, when set, can force cached translations out of the ATT on a
	// deterministic schedule (an adapter invalidating stale entries
	// under pressure). Nil = no faults.
	inj *faults.Injector

	mrs map[uint32]*MR
	// vaGen counts registrations per base address. Keys are derived
	// from (base VA, generation), not from a global install counter:
	// concurrent registrations (Sendrecv's forked halves under memlock
	// eviction pressure) would otherwise draw counter values in
	// scheduler order, and everything keyed on the lkey downstream —
	// ATT set placement, the per-translation fault streams — would
	// inherit that nondeterminism.
	vaGen     map[vm.VA]uint32
	nextQPNum uint32
	att       attCache
	stats     Stats
}

// SetFaults attaches a fault injector.
func (h *HCA) SetFaults(inj *faults.Injector) {
	h.inj = inj
}

// New builds an adapter for a machine, attached to the node's physical
// memory.
func New(m *machine.Machine, mem *phys.Memory) *HCA {
	return &HCA{
		mach:      m,
		bus:       bus.New(m.Bus),
		mem:       mem,
		mrs:       make(map[uint32]*MR),
		vaGen:     make(map[vm.VA]uint32),
		nextQPNum: 1,
		att:       newATTCache(m.HCA.ATTEntries, m.HCA.ATTWays),
	}
}

// keyFor derives the lkey for the gen-th registration of base: a 31-bit
// hash (bit 31 is the rkey tag) of the pair, so the key depends only on
// what was registered, never on when relative to other buffers. Linear
// probing resolves the (vanishingly rare) collisions with live keys.
func (h *HCA) keyFor(base vm.VA, gen uint32) uint32 {
	x := uint64(base)<<32 | uint64(gen)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	key := uint32(x) & 0x7FFF_FFFF
	for key == 0 || h.mrs[key] != nil {
		key = key%0x7FFF_FFFF + 1
	}
	return key
}

// Machine exposes the adapter's host description.
func (h *HCA) Machine() *machine.Machine { return h.mach }

// InstallMR installs translations for a pinned buffer and returns the MR.
// pages must cover [base, base+length) in address order, all of one page
// class (vm.Pin produces exactly this). If hugeATT is true and the pages
// are hugepages, one MTT entry per 2 MiB page is installed (the paper's
// driver patch); otherwise the driver "pretends 4 KB pages" and installs
// one entry per 4 KiB, expanding hugepages into 512 contiguous entries.
func (h *HCA) InstallMR(base vm.VA, length uint64, pages []vm.Page, hugeATT bool) (*MR, error) {
	if len(pages) == 0 {
		return nil, errors.New("hca: empty page list")
	}
	mr := &MR{Base: base, Length: length}
	if pages[0].Class == vm.Huge && hugeATT {
		mr.PageShift = 21
		mr.entries = make([]phys.Addr, 0, len(pages))
		for _, p := range pages {
			mr.entries = append(mr.entries, p.PA)
		}
	} else {
		mr.PageShift = 12
		per := 1
		if pages[0].Class == vm.Huge {
			per = machine.SmallPerHuge
		}
		mr.entries = make([]phys.Addr, 0, len(pages)*per)
		for _, p := range pages {
			for i := 0; i < per; i++ {
				mr.entries = append(mr.entries, p.PA+phys.Addr(i*machine.SmallPageSize))
			}
		}
	}
	mr.LKey = h.keyFor(base, h.vaGen[base])
	mr.RKey = mr.LKey | 0x8000_0000
	h.vaGen[base]++
	h.mrs[mr.LKey] = mr
	h.stats.MTTEntries += int64(len(mr.entries))
	return mr, nil
}

// RemoveMR tears the MR's translations down.
func (h *HCA) RemoveMR(lkey uint32) error {
	mr, ok := h.mrs[lkey]
	if !ok {
		return fmt.Errorf("%w: lkey %#x", ErrBadKey, lkey)
	}
	delete(h.mrs, lkey)
	h.stats.MTTEntries -= int64(len(mr.entries))
	h.att.invalidate(lkey)
	return nil
}

// lookup finds an MR by local key or by remote key.
func (h *HCA) lookup(key uint32) (*MR, error) {
	if mr, ok := h.mrs[key]; ok {
		return mr, nil
	}
	if mr, ok := h.mrs[key&^0x8000_0000]; ok && mr.RKey == key {
		return mr, nil
	}
	return nil, fmt.Errorf("%w: key %#x", ErrBadKey, key)
}

// PostCost charges for building and posting one work request with nsge
// scatter/gather elements: it counts the WR and returns its PostPrice.
func (h *HCA) PostCost(nsge int) simtime.Ticks {
	h.stats.PostedWRs++
	return h.PostPrice(nsge)
}

// PostPrice is the consumer-side cost of building and posting one work
// request with nsge scatter/gather elements, without posting it: doorbell
// + WQE build, growing mildly per SGE (Figure 3's sub-linear behaviour:
// the WQE holds inline SGE descriptors that are written in bursts).
func (h *HCA) PostPrice(nsge int) simtime.Ticks {
	if nsge < 1 {
		nsge = 1
	}
	p := h.mach.HCA
	return p.DoorbellTicks + p.WQEBaseTicks + simtime.Ticks(nsge-1)*p.WQESGETicks
}

// PollCost is the consumer-side cost of reaping one completion entry.
func (h *HCA) PollCost() simtime.Ticks {
	h.stats.CQEs++
	return h.mach.HCA.CQETicks
}

// attAccess charges for one translation lookup and returns its cost.
func (h *HCA) attAccess(lkey uint32, pageIdx int) simtime.Ticks {
	if h.inj.ATTEvict(uint64(lkey)<<32 | uint64(uint32(pageIdx))) {
		// Injected eviction: this access's cached translation (if any)
		// is lost right before the lookup, forcing a refetch across the
		// IO bus. The perturbation is local to the (lkey,page) entry, so
		// the fault pattern replays bit-identically even while two
		// protocol halves drive the adapter concurrently.
		if h.att.evictEntry(lkey, pageIdx) {
			h.stats.ATTEvictions++
		}
	}
	if h.att.access(lkey, pageIdx) {
		h.stats.ATTHits++
		return 0
	}
	h.stats.ATTMisses++
	return h.mach.HCA.ATTMissTicks
}

// checkRange validates that [va, va+n) lies inside the region named by
// key, without touching the translation cache.
func (h *HCA) checkRange(key uint32, va vm.VA, n uint32) (*MR, error) {
	mr, err := h.lookup(key)
	if err != nil {
		return nil, err
	}
	if va < mr.Base || uint64(va)+uint64(n) > uint64(mr.Base)+mr.Length {
		return nil, fmt.Errorf("%w: [%#x,+%d) outside region [%#x,+%d)", ErrOutOfBounds,
			uint64(va), n, uint64(mr.Base), mr.Length)
	}
	return mr, nil
}

// dmaChunk walks one SGE page by page, invoking f with each physically
// contiguous chunk, and accumulates translation plus DMA cost. pipelined
// marks SGEs after the first in a work request: the DMA engine overlaps
// their descriptor/arbitration latency with the previous element's
// transfer ("the network adapter can fetch buffers from the memory
// subsystem simultaneously"), so the per-transaction setup is not
// re-charged — this is what keeps Figure 3's 4-SGE send only ~14 % more
// expensive than a 1-SGE send of a quarter the data.
func (h *HCA) dmaChunk(sge SGE, pipelined bool, f func(pa phys.Addr, off uint64, n int)) (simtime.Ticks, error) {
	mr, err := h.checkRange(sge.LKey, sge.Addr, sge.Length)
	if err != nil {
		return 0, err
	}
	// Small chunks pay the full per-transaction alignment model inside
	// DMACost; bulk streaming pays one engine setup per SGE and then pure
	// bandwidth (page-to-page streaming amortises further transactions).
	var cost simtime.Ticks
	bulkSetup := false
	// A pipelined SGE's first small chunk skips the per-transaction setup
	// (overlapped with the previous element's transfer).
	discounted := !pipelined
	va := sge.Addr
	left := int(sge.Length)
	ps := mr.pageSize()
	for left > 0 {
		pa, idx, err := mr.translate(va)
		if err != nil {
			return 0, err
		}
		cost += h.attAccess(sge.LKey, idx)
		pageOff := uint64(va) & (ps - 1)
		n := int(ps - pageOff)
		if n > left {
			n = left
		}
		// Small chunks pay the per-line alignment model; large chunks
		// stream at bus bandwidth.
		if n <= 4*machine.CacheLineSize {
			c := h.bus.DMACost(uint64(va)%machine.SmallPageSize, n)
			if !discounted {
				if c > h.bus.Bus.TxnTicks {
					c -= h.bus.Bus.TxnTicks
				}
				discounted = true
			}
			cost += c
		} else {
			if !bulkSetup {
				cost += h.bus.Bus.TxnTicks
				bulkSetup = true
			}
			cost += simtime.BandwidthTicks(int64(n), h.bus.Bus.BandwidthMBs)
		}
		if f != nil {
			f(pa, pageOff, n)
		}
		va += vm.VA(n)
		left -= n
	}
	return cost, nil
}

// Gather DMA-reads the payload described by a gather list into a new
// buffer and returns it with the adapter-side cost; see GatherInto.
func (h *HCA) Gather(sges []SGE) ([]byte, simtime.Ticks, error) {
	data := make([]byte, TotalLen(sges))
	cost, err := h.GatherInto(data, sges)
	if err != nil {
		return nil, 0, err
	}
	return data, cost, nil
}

// GatherInto DMA-reads the payload described by a gather list into
// dst[:TotalLen(sges)] and returns the adapter-side cost (translations +
// DMA reads). This is the "network adapter can fetch buffers from the
// memory subsystem simultaneously without involving the CPU" step;
// simultaneity is modelled by charging the serial DMA cost only once per
// chunk with no CPU charge. dst must hold the whole payload.
func (h *HCA) GatherInto(dst []byte, sges []SGE) (simtime.Ticks, error) {
	n := TotalLen(sges)
	if len(dst) < n {
		return 0, fmt.Errorf("hca: gather buffer %d bytes < payload %d bytes", len(dst), n)
	}
	pos := 0
	var total simtime.Ticks
	for i, sge := range sges {
		cost, err := h.dmaChunk(sge, i > 0, func(pa phys.Addr, _ uint64, n int) {
			h.mem.ReadPhys(pa, dst[pos:pos+n])
			pos += n
		})
		if err != nil {
			return 0, err
		}
		total += cost
	}
	h.stats.BytesGather += int64(n)
	return total, nil
}

// Scatter DMA-writes data into the buffers described by a scatter list
// (the receive side of a send/recv pair). Excess data beyond the scatter
// list is an error, mirroring IB's local-length error.
func (h *HCA) Scatter(sges []SGE, data []byte) (simtime.Ticks, error) {
	if TotalLen(sges) < len(data) {
		return 0, fmt.Errorf("%w: receive list %d bytes < payload %d bytes",
			ErrOutOfBounds, TotalLen(sges), len(data))
	}
	var total simtime.Ticks
	pos := 0
	for i, sge := range sges {
		if pos >= len(data) {
			break
		}
		want := int(sge.Length)
		if want > len(data)-pos {
			want = len(data) - pos
			sge.Length = uint32(want)
		}
		cost, err := h.dmaChunk(sge, i > 0, func(pa phys.Addr, _ uint64, n int) {
			h.mem.WritePhys(pa, data[pos:pos+n])
			pos += n
		})
		if err != nil {
			return 0, err
		}
		total += cost
	}
	h.stats.BytesScatter += int64(len(data))
	return total, nil
}

// RDMAWrite is the data movement of an RDMA write: this adapter gathers
// the local list exactly as Gather does (same translations, costs and
// BytesGather) and places each chunk straight into dst's memory at the
// remote (rkey, va), copying frame to frame through the remote region's
// MTT. No payload buffer exists and dst's translation cache is not
// touched: the receiving adapter charges its side with PlaceRDMA at the
// point its scatter completes. Every key and bound is validated before
// any byte moves. It returns the gather cost; when tc is enabled the
// gather is also emitted as one "dma.gather" span (see traceDMA).
func (h *HCA) RDMAWrite(tc trace.Ctx, sges []SGE, dst *HCA, rkey uint32, va vm.VA) (simtime.Ticks, error) {
	var h0, m0, e0 int64
	if tc.Enabled() {
		h0, m0, e0 = h.attCounters()
	}
	for _, sge := range sges {
		if _, err := h.checkRange(sge.LKey, sge.Addr, sge.Length); err != nil {
			return 0, err
		}
	}
	n := TotalLen(sges)
	dmr, err := dst.checkRange(rkey, va, uint32(n))
	if err != nil {
		return 0, err
	}
	dps := dmr.pageSize()
	var total simtime.Ticks
	for i, sge := range sges {
		cost, err := h.dmaChunk(sge, i > 0, func(pa phys.Addr, _ uint64, left int) {
			// Split the local chunk where the remote region's pages end.
			for left > 0 {
				dpa, _, _ := dmr.translate(va) // in range: checked above
				c := min(left, int(dps-uint64(va)&(dps-1)))
				phys.Copy(dst.mem, dpa, h.mem, pa, c)
				pa += phys.Addr(c)
				va += vm.VA(c)
				left -= c
			}
		})
		if err != nil {
			return 0, err
		}
		total += cost
	}
	h.stats.BytesGather += int64(n)
	if tc.Enabled() {
		h.traceDMA(tc, "dma.gather", total, n, len(sges), h0, m0, e0)
	}
	return total, nil
}

// PlaceRDMA is the receiving adapter's side of an RDMAWrite of n bytes
// at (rkey, va): the translations and DMA-write cost of placing them,
// counted in BytesScatter, with no bytes moved (RDMAWrite already placed
// them). Its ATT accesses and cost are exactly those of a Scatter of n
// bytes to the same target. When tc is enabled the placement is also
// emitted as one "dma.scatter" span.
func (h *HCA) PlaceRDMA(tc trace.Ctx, rkey uint32, va vm.VA, n int) (simtime.Ticks, error) {
	var h0, m0, e0 int64
	if tc.Enabled() {
		h0, m0, e0 = h.attCounters()
	}
	cost, err := h.dmaChunk(SGE{Addr: va, Length: uint32(n), LKey: rkey}, false, nil)
	if err != nil {
		return 0, err
	}
	h.stats.BytesScatter += int64(n)
	if tc.Enabled() {
		h.traceDMA(tc, "dma.scatter", cost, n, 1, h0, m0, e0)
	}
	return cost, nil
}

// attCounters snapshots the translation-cache counters; the traced DMA
// operations diff two snapshots to attribute per-operation ATT behaviour.
// The caller must hold the adapter serialised across the operation (the
// MPI layer's dma gate does) for the delta to be exact.
func (h *HCA) attCounters() (hits, misses, evicts int64) {
	return h.stats.ATTHits, h.stats.ATTMisses, h.stats.ATTEvictions
}

// traceDMA emits one finished DMA operation as an hca-layer span at tc's
// position (callers put tc on an adapter track), annotated with the
// bytes moved and the translation-cache behaviour since the counters
// (h0, m0, e0) were taken.
func (h *HCA) traceDMA(tc trace.Ctx, name string, cost simtime.Ticks, bytes, sges int, h0, m0, e0 int64) {
	h1, m1, e1 := h.attCounters()
	tc.SpanAt(trace.LHCA, name, tc.Now(), cost,
		trace.I64("bytes", int64(bytes)),
		trace.I64("sges", int64(sges)),
		trace.I64("att_hit", h1-h0),
		trace.I64("att_miss", m1-m0),
		trace.I64("att_evict", e1-e0))
}

// WireCost is the time on the link for an n-byte message: one-way latency
// plus serialisation at wire bandwidth.
func (h *HCA) WireCost(n int) simtime.Ticks {
	p := h.mach.HCA
	return p.WireLatency + simtime.BandwidthTicks(int64(n), p.WireBandwidthMBs)
}

// Stats returns a snapshot of the counters.
func (h *HCA) Stats() Stats {
	return h.stats
}
