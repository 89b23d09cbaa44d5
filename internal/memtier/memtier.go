// Package memtier models tiered physical memory under internal/phys: a
// fast DRAM-speed tier plus one or more slower tiers (CXL expander,
// persistent memory) with per-tier capacity, access penalties applied in
// virtual time, and explicit page migration with modeled copy cost — the
// Dynamic-Page-Placement extension the modern workload pack needs (the
// KV-cache workload's fast/slow placement and its migrate-vs-recompute
// decisions both run on this package).
//
// The model is deliberately an overlay: internal/phys keeps handing out
// frames exactly as before, and a Manager tracks which tier the data of
// each physical page currently lives in. Pages are keyed by the frame
// backing the page's base address, so small pages and hugepages coexist
// (a hugepage is one entry covering 2 MiB). Placement is first-touch
// top-down in tier order — a page lands in the fastest tier with
// capacity headroom, spilling toward the slower tiers like Hermes'
// TopDown placement — and Migrate moves resident pages explicitly,
// charging the copy at the configured migration bandwidth plus a
// per-page remap overhead.
//
// Residency lives in 128-frame chunks, allocated on a chunk's first
// placement and found through a map keyed by chunk number, so a node
// pays one map entry per 128 frames it has placed pages in, not one
// per page.
//
// Determinism: every decision is a pure function of the call sequence —
// no wall clock, no randomness, no map iteration reaches a result. The
// chunk map is consulted point-wise only (maporder).
package memtier

import (
	"fmt"
	"math"

	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Tier describes one memory tier. Tier 0 is the fastest; access costs
// are *extra* virtual time over the baseline DRAM memory model (the
// DTLB walks and copy bandwidth the stack already charges), so a tier
// with zero TouchTicks and zero StreamBandwidthMBs is plain DRAM.
type Tier struct {
	// Name labels the tier in stats and traces ("fast", "slow", ...).
	Name string
	// CapacityBytes caps the bytes resident in this tier; 0 means
	// unbounded (the last tier must be unbounded so placement never
	// fails).
	CapacityBytes int64
	// TouchTicks is the extra latency charged per page touch — the
	// tier's load-to-use penalty over DRAM.
	TouchTicks simtime.Ticks
	// StreamBandwidthMBs, when non-zero, charges the touched bytes at
	// this bandwidth on top of TouchTicks — the tier's streaming
	// penalty (a slow tier's read bandwidth).
	StreamBandwidthMBs float64
}

// Config describes a tier stack, fastest first.
type Config struct {
	Tiers []Tier
	// MigrateBandwidthMBs is the copy bandwidth Migrate charges; 0
	// takes the machine DRAM copy bandwidth of the node (set by the
	// wiring layer) or DefaultMigrateBandwidthMBs.
	MigrateBandwidthMBs float64
}

// DefaultMigrateBandwidthMBs bounds migration copies when neither the
// config nor the node wiring supplies a bandwidth.
const DefaultMigrateBandwidthMBs = 2000

// pageRemapTicks is the fixed per-page overhead of a migration: the
// remap, the TLB shootdown of the moved translation, and the kernel
// bookkeeping — charged per page regardless of page size.
const pageRemapTicks = simtime.Ticks(600)

// TwoTier is the canonical fast/slow stack: a capacity-bounded
// DRAM-speed fast tier over an unbounded slow tier with the given
// per-touch latency and streaming bandwidth.
func TwoTier(fastBytes int64, slowTouch simtime.Ticks, slowMBs float64) *Config {
	return &Config{Tiers: []Tier{
		{Name: "fast", CapacityBytes: fastBytes},
		{Name: "slow", TouchTicks: slowTouch, StreamBandwidthMBs: slowMBs},
	}}
}

// Validate rejects tier stacks the Manager would refuse.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if len(c.Tiers) < 2 {
		return fmt.Errorf("memtier: need at least 2 tiers, got %d", len(c.Tiers))
	}
	seen := make(map[string]bool, len(c.Tiers))
	for i, t := range c.Tiers {
		if t.Name == "" {
			return fmt.Errorf("memtier: tier %d needs a name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("memtier: duplicate tier name %q", t.Name)
		}
		seen[t.Name] = true
		if t.CapacityBytes < 0 {
			return fmt.Errorf("memtier: tier %q has negative capacity", t.Name)
		}
		if t.TouchTicks < 0 {
			return fmt.Errorf("memtier: tier %q has negative touch latency", t.Name)
		}
		if t.StreamBandwidthMBs < 0 {
			return fmt.Errorf("memtier: tier %q has negative bandwidth", t.Name)
		}
	}
	if last := c.Tiers[len(c.Tiers)-1]; last.CapacityBytes != 0 {
		return fmt.Errorf("memtier: last tier %q must be unbounded (capacity 0)", last.Name)
	}
	return nil
}

// PageRef names one tracked page: the frame backing its base address
// plus its size (4 KiB for a small page, 2 MiB for a hugepage).
type PageRef struct {
	Frame phys.Frame
	Bytes uint64
}

// TierStats is one tier's counter set.
type TierStats struct {
	Name          string
	CapacityBytes int64 // 0 = unbounded
	UsedBytes     int64 // gauge: bytes currently resident
	PeakBytes     int64
	Assigns       int64         // pages first placed in this tier
	Spills        int64         // first placements redirected here by a full faster tier
	TouchTicks    simtime.Ticks // access penalty charged for touches here
}

// Stats is a Manager snapshot.
type Stats struct {
	Tiers         []TierStats
	Promotions    int64 // pages moved to a faster tier
	Demotions     int64 // pages moved to a slower tier
	MigratedBytes int64
	MigrateTicks  simtime.Ticks
}

// Manager tracks the tier residency of one node's pages. Not safe for
// concurrent use: the scheduler runs one task per node at a time, like
// every other node layer. A nil Manager is "tiering disabled": every
// method is safe, every cost is zero — exactly the pre-memtier stack.
//
//reprolint:nilsafe
type Manager struct {
	tiers  []Tier
	migMBs float64
	// chunks holds the residency of the frames [c*chunkFrames,
	// (c+1)*chunkFrames) at key c, created on the chunk's first
	// placement; last and lastNo cache the chunk found most recently,
	// since consecutive pages of a range share one.
	chunks map[phys.Frame]*residChunk
	last   *residChunk
	lastNo phys.Frame
	stats  Stats
	// cur, when set, stamps migrations as tier-layer trace events at
	// the cursor's current position (nil = no tracing).
	cur *trace.Cursor
}

// tierPage is one page's residency: the tier it sits in and its size
// when placed. The zero value is an untracked page.
type tierPage struct {
	bytes    uint64
	tier     int32
	resident bool
}

// chunkFrames is the number of frames one residency chunk covers, as
// in internal/phys's frame table: 2 KiB of entries.
const chunkFrames = 128

type residChunk [chunkFrames]tierPage

// page returns the residency entry of frame f, or nil if no page in f's
// chunk was ever placed.
func (m *Manager) page(f phys.Frame) *tierPage {
	no := f / chunkFrames
	if m.last == nil || m.lastNo != no {
		c := m.chunks[no]
		if c == nil {
			return nil
		}
		m.last, m.lastNo = c, no
	}
	return &m.last[f%chunkFrames]
}

// resident returns frame f's entry if it holds a placed page.
func (m *Manager) resident(f phys.Frame) (*tierPage, bool) {
	p := m.page(f)
	return p, p != nil && p.resident
}

// slot returns frame f's residency entry, creating its chunk on first
// use.
func (m *Manager) slot(f phys.Frame) *tierPage {
	if p := m.page(f); p != nil {
		return p
	}
	if m.chunks == nil {
		m.chunks = make(map[phys.Frame]*residChunk)
	}
	c := new(residChunk)
	m.chunks[f/chunkFrames] = c
	m.last, m.lastNo = c, f/chunkFrames
	return &c[f%chunkFrames]
}

// New builds a Manager from a validated config; a nil config returns a
// nil Manager (tiering disabled).
func New(cfg *Config, cur *trace.Cursor) (*Manager, error) {
	if cfg == nil {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		tiers:  append([]Tier(nil), cfg.Tiers...),
		migMBs: cfg.MigrateBandwidthMBs,
		cur:    cur,
	}
	if m.migMBs <= 0 {
		m.migMBs = DefaultMigrateBandwidthMBs
	}
	m.stats.Tiers = make([]TierStats, len(m.tiers))
	for i, t := range m.tiers {
		m.stats.Tiers[i].Name = t.Name
		m.stats.Tiers[i].CapacityBytes = t.CapacityBytes
	}
	return m, nil
}

// TierCount returns the number of tiers (0 when disabled).
func (m *Manager) TierCount() int {
	if m == nil {
		return 0
	}
	return len(m.tiers)
}

// FreeBytes reports tier i's remaining capacity (MaxInt64 for an
// unbounded tier, 0 when disabled).
func (m *Manager) FreeBytes(i int) int64 {
	if m == nil || i < 0 || i >= len(m.tiers) {
		return 0
	}
	if m.tiers[i].CapacityBytes == 0 {
		return math.MaxInt64
	}
	free := m.tiers[i].CapacityBytes - m.stats.Tiers[i].UsedBytes
	if free < 0 {
		return 0
	}
	return free
}

// place records a first placement: the fastest tier at or below `want`
// with headroom for the page, spilling down-stack when full. The last
// tier is unbounded, so placement always succeeds.
func (m *Manager) place(ref PageRef, want int) int {
	for ti := want; ; ti++ {
		last := ti == len(m.tiers)-1
		if !last && m.tiers[ti].CapacityBytes > 0 &&
			m.stats.Tiers[ti].UsedBytes+int64(ref.Bytes) > m.tiers[ti].CapacityBytes {
			continue
		}
		*m.slot(ref.Frame) = tierPage{bytes: ref.Bytes, tier: int32(ti), resident: true}
		ts := &m.stats.Tiers[ti]
		ts.UsedBytes += int64(ref.Bytes)
		if ts.UsedBytes > ts.PeakBytes {
			ts.PeakBytes = ts.UsedBytes
		}
		ts.Assigns++
		if ti != want {
			ts.Spills++
		}
		return ti
	}
}

// TierOf reports the tier a page resides in, first-touch placing it
// top-down if it is not yet tracked. Returns -1 when disabled.
func (m *Manager) TierOf(ref PageRef) int {
	if m == nil {
		return -1
	}
	if p, ok := m.resident(ref.Frame); ok {
		return int(p.tier)
	}
	return m.place(ref, 0)
}

// Assign first-touch places pages starting at the given tier (spilling
// down-stack when full) and reports how many landed there. Pages
// already resident somewhere are left where they are — Assign is the
// placement hint for fresh data; Migrate moves resident pages.
func (m *Manager) Assign(refs []PageRef, tier int) int {
	if m == nil || len(refs) == 0 {
		return 0
	}
	if tier < 0 || tier >= len(m.tiers) {
		tier = len(m.tiers) - 1
	}
	placed := 0
	for _, ref := range refs {
		if _, ok := m.resident(ref.Frame); ok {
			continue
		}
		if m.place(ref, tier) == tier {
			placed++
		}
	}
	return placed
}

// Touch charges one page access: `touched` bytes read or written within
// the page. An untracked page is first-touch placed top-down. The
// returned penalty is the tier's extra virtual time (zero for a plain
// DRAM tier), which the caller charges to its clock.
func (m *Manager) Touch(ref PageRef, touched uint64) simtime.Ticks {
	if m == nil {
		return 0
	}
	ti := m.TierOf(ref)
	t := &m.tiers[ti]
	d := t.TouchTicks
	if t.StreamBandwidthMBs > 0 && touched > 0 {
		d += simtime.BandwidthTicks(int64(touched), t.StreamBandwidthMBs)
	}
	m.stats.Tiers[ti].TouchTicks += d
	return d
}

// MigrateCost models the cost of moving `bytes` across tiers in `pages`
// pages without moving anything — the estimate the migrate-vs-recompute
// decision compares against recomputation.
func (m *Manager) MigrateCost(pages int, bytes uint64) simtime.Ticks {
	if m == nil || pages <= 0 {
		return 0
	}
	return simtime.Ticks(pages)*pageRemapTicks + simtime.BandwidthTicks(int64(bytes), m.migMBs)
}

// Migrate moves resident pages to the given tier, skipping pages
// already there and pages that do not fit (a bounded destination is
// never overcommitted; callers demote cold pages first to make room).
// It returns the pages moved and the modeled copy cost, which the
// caller charges to its clock.
func (m *Manager) Migrate(refs []PageRef, tier int) (moved int, cost simtime.Ticks) {
	if m == nil || len(refs) == 0 {
		return 0, 0
	}
	if tier < 0 || tier >= len(m.tiers) {
		return 0, 0
	}
	var bytes int64
	for _, ref := range refs {
		p, ok := m.resident(ref.Frame)
		if !ok {
			// Moving untracked data means placing it: first-touch at
			// the destination (spilling if full), with no copy cost —
			// there is nothing resident to move.
			m.place(ref, tier)
			continue
		}
		from := int(p.tier)
		if from == tier {
			continue
		}
		dst := &m.stats.Tiers[tier]
		if m.tiers[tier].CapacityBytes > 0 &&
			dst.UsedBytes+int64(p.bytes) > m.tiers[tier].CapacityBytes {
			continue
		}
		m.stats.Tiers[from].UsedBytes -= int64(p.bytes)
		dst.UsedBytes += int64(p.bytes)
		if dst.UsedBytes > dst.PeakBytes {
			dst.PeakBytes = dst.UsedBytes
		}
		if tier < from {
			m.stats.Promotions++
		} else {
			m.stats.Demotions++
		}
		p.tier = int32(tier)
		moved++
		bytes += int64(p.bytes)
	}
	if moved > 0 {
		cost = m.MigrateCost(moved, uint64(bytes))
		m.stats.MigratedBytes += bytes
		m.stats.MigrateTicks += cost
		if m.cur.Enabled() { // the event's arguments escape: build them only when traced
			m.cur.Event(trace.LTier, "migrate",
				trace.I64("tier", int64(tier)), trace.I64("pages", int64(moved)), trace.I64("bytes", bytes))
		}
	}
	return moved, cost
}

// Stats snapshots the counters (zero value when disabled). The tier
// slice is a copy.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	out := m.stats
	out.Tiers = append([]TierStats(nil), m.stats.Tiers...)
	return out
}
