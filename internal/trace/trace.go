// Package trace is the deterministic virtual-time tracing subsystem of
// the simulated stack. Every layer — the MPI runtime, the registration
// cache, the verbs layer, the HCA's DMA engines, the address space and
// the hugepage pool — records spans and instant events stamped with
// simtime.Ticks, never a wall clock, so one Sendrecv renders as a
// nested timeline across ranks and two same-seed runs produce
// byte-identical trace files.
//
// The design mirrors internal/faults: a nil *Collector (the canonical
// "tracing disabled") produces nil *Tracer and nil *Cursor instances,
// and the zero Ctx is inert — every method is safe and free on the
// disabled forms, so instrumentation stays in place permanently with no
// cost when no -trace flag is given.
//
// Determinism contract: all record content (timestamps, durations,
// names, argument values, flow ids) must be pure functions of the
// simulation's virtual-time schedule. Records may be *appended* from
// interleaved tasks in scheduler order — Sendrecv's two halves both
// emit — so the writer canonicalises by sorting every record under a
// total order over its full content before rendering (perfetto.go).
// The package consumes simtime.Ticks only; the determinism analyzer
// (internal/analysis/determinism) bans wall clocks here like everywhere
// else.
package trace

import (
	"repro/internal/simtime"
)

// Layer names the producing subsystem of a span or event; it becomes
// the Perfetto category and the unit of tracetool's time breakdown.
type Layer string

// The instrumented layers, top of the stack first.
const (
	LApp      Layer = "app"      // application compute (memmodel charges)
	LMPI      Layer = "mpi"      // MPI calls and protocol phases
	LPolicy   Layer = "policy"   // placement-policy decisions and demotions
	LAlloc    Layer = "alloc"    // allocation-library time
	LRegcache Layer = "regcache" // pin-down cache lookups and evictions
	LVerbs    Layer = "verbs"    // memory registration (pin/translate/push)
	LHCA      Layer = "hca"      // WR post/poll, DMA gather/scatter, ATT
	LVM       Layer = "vm"       // address-space map/unmap/fallback
	LPhys     Layer = "phys"     // hugepage pool pressure
	LTier     Layer = "tier"     // memory-tier placement and migration
)

// Conventional track (Perfetto thread) ids within one traced process.
// A rank's main task records on TrackMain; Sendrecv's forked send
// half on TrackSend; adapter-side DMA work on the two HCA tracks so
// overlapping engine activity does not distort the CPU timeline.
const (
	TrackMain  = 0
	TrackSend  = 1
	TrackHCATx = 2
	TrackHCARx = 3
)

// trackNames are the display names the writer attaches to the
// conventional tracks.
var trackNames = map[int32]string{
	TrackMain:  "main",
	TrackSend:  "send",
	TrackHCATx: "hca-tx",
	TrackHCARx: "hca-rx",
}

// Arg is one integer key/value annotation on a span or event. Keeping
// arguments integral keeps rendering trivially deterministic.
type Arg struct {
	Key string
	Val int64
}

// I64 builds an annotation.
func I64(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// span is one completed interval on a track.
type span struct {
	pid, tid int32
	layer    Layer
	name     string
	start    simtime.Ticks
	dur      simtime.Ticks
	args     []Arg
}

// event is one instant marker on a track.
type event struct {
	pid, tid int32
	layer    Layer
	name     string
	at       simtime.Ticks
	args     []Arg
}

// flow is one endpoint of a message arrow between two tracks. begin
// marks the sending side; the matching receiving side shares the id.
type flow struct {
	pid, tid int32
	id       uint64
	at       simtime.Ticks
	begin    bool
}

// Collector gathers the records of every traced process of one run and
// renders them as a single Perfetto trace_event JSON file. A nil
// *Collector is "tracing disabled": Tracer returns nil and nothing
// records.
//
//reprolint:nilsafe
type Collector struct {
	procs  []procMeta
	spans  []span
	events []event
	flows  []flow
	metaS  [][2]string // otherData annotations, in first-set order
}

type procMeta struct {
	pid  int32
	name string
}

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// SetMeta attaches a string annotation to the trace header (tool name,
// workload, fault spec, ...). Later values for the same key win.
func (c *Collector) SetMeta(key, val string) {
	if c == nil {
		return
	}
	for i := range c.metaS {
		if c.metaS[i][0] == key {
			c.metaS[i][1] = val
			return
		}
	}
	c.metaS = append(c.metaS, [2]string{key, val})
}

// Tracer registers a new traced process (one simulated host) under the
// given display name and returns its tracer. Process ids are assigned
// in registration order, which the callers keep deterministic (ranks
// are built in rank order, benchmark rigs side by side). A nil
// collector returns a nil tracer, on which every method is a no-op.
func (c *Collector) Tracer(name string) *Tracer {
	if c == nil {
		return nil
	}
	pid := int32(len(c.procs))
	c.procs = append(c.procs, procMeta{pid: pid, name: name})
	return &Tracer{col: c, pid: pid}
}

// Tracer records for one traced process. A nil *Tracer is the disabled
// form every layer holds when no -trace flag is given.
//
//reprolint:nilsafe
type Tracer struct {
	col *Collector
	pid int32
}

// Enabled reports whether records are being collected.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	return true
}

// At opens a Ctx: a timeline position on one of the tracer's tracks.
// A nil tracer returns the inert zero Ctx.
func (t *Tracer) At(track int, now simtime.Ticks) Ctx {
	if t == nil {
		return Ctx{}
	}
	return Ctx{tr: t, tid: int32(track), now: now}
}

// Cursor builds a mutable timeline position on a track, for layers that
// have no virtual clock of their own (the address space, the hugepage
// pool): the owning rank moves the cursor at each entry point and the
// layer stamps its events wherever the cursor stands. A nil tracer
// returns a nil cursor (all methods no-ops).
func (t *Tracer) Cursor(track int) *Cursor {
	if t == nil {
		return nil
	}
	return &Cursor{tr: t, tid: int32(track)}
}

// span records one complete interval.
func (t *Tracer) span(tid int32, layer Layer, name string, start, dur simtime.Ticks, args []Arg) {
	if t == nil {
		return
	}
	t.col.spans = append(t.col.spans, span{pid: t.pid, tid: tid, layer: layer, name: name, start: start, dur: dur, args: args})
}

// event records one instant marker.
func (t *Tracer) event(tid int32, layer Layer, name string, at simtime.Ticks, args []Arg) {
	if t == nil {
		return
	}
	t.col.events = append(t.col.events, event{pid: t.pid, tid: tid, layer: layer, name: name, at: at, args: args})
}

// flowPoint records one flow endpoint.
func (t *Tracer) flowPoint(tid int32, id uint64, at simtime.Ticks, begin bool) {
	if t == nil {
		return
	}
	t.col.flows = append(t.col.flows, flow{pid: t.pid, tid: tid, id: id, at: at, begin: begin})
}

// Ctx is one immutable timeline position: a tracer, a track, and the
// current virtual instant. It is threaded by value down the call chain
// that computes a cost — each layer emits spans at the cursor, advances
// its local copy by the durations it charges, and the caller advances
// its own clock by the returned total as before. The zero Ctx is
// disabled and free; hot paths guard argument construction with
// Enabled().
type Ctx struct {
	tr  *Tracer
	tid int32
	now simtime.Ticks
}

// Enabled reports whether this position records anywhere.
func (c Ctx) Enabled() bool { return c.tr != nil }

// Now returns the position's current instant.
func (c Ctx) Now() simtime.Ticks { return c.now }

// Advance returns the position moved forward by d.
func (c Ctx) Advance(d simtime.Ticks) Ctx {
	c.now += d
	return c
}

// Span emits [now, now+dur) and returns the position advanced past it.
func (c Ctx) Span(layer Layer, name string, dur simtime.Ticks, args ...Arg) Ctx {
	if c.tr == nil {
		return c
	}
	c.tr.span(c.tid, layer, name, c.now, dur, args)
	c.now += dur
	return c
}

// SpanAt emits an interval at an explicit position (for enclosing spans
// recorded after their children completed). The Ctx is unchanged.
func (c Ctx) SpanAt(layer Layer, name string, start, dur simtime.Ticks, args ...Arg) {
	if c.tr == nil {
		return
	}
	c.tr.span(c.tid, layer, name, start, dur, args)
}

// Event emits an instant marker at the current position.
func (c Ctx) Event(layer Layer, name string, args ...Arg) {
	if c.tr == nil {
		return
	}
	c.tr.event(c.tid, layer, name, c.now, args)
}

// FlowBegin emits the sending endpoint of message arrow id.
func (c Ctx) FlowBegin(id uint64) {
	if c.tr == nil {
		return
	}
	c.tr.flowPoint(c.tid, id, c.now, true)
}

// FlowEnd emits the receiving endpoint of message arrow id.
func (c Ctx) FlowEnd(id uint64) {
	if c.tr == nil {
		return
	}
	c.tr.flowPoint(c.tid, id, c.now, false)
}

// Cursor is a mutable timeline position for clockless layers (the
// address space, physical memory). The owning rank calls Set at its
// entry points (Malloc, Free, trace replay steps); the layer stamps
// instant events wherever the cursor currently stands. All methods are
// nil-safe. The cursor takes no lock: like every layer above
// internal/sched, it is only touched by the one task that holds the
// baton, so timestamps stay deterministic.
//
//reprolint:nilsafe
type Cursor struct {
	tr  *Tracer
	tid int32

	now simtime.Ticks
}

// Set moves the cursor to the given instant.
func (c *Cursor) Set(now simtime.Ticks) {
	if c == nil {
		return
	}
	c.now = now
}

// Event stamps an instant marker at the cursor's position.
func (c *Cursor) Event(layer Layer, name string, args ...Arg) {
	if c == nil {
		return
	}
	c.tr.event(c.tid, layer, name, c.now, args)
}

// Enabled reports whether events stamp anywhere.
func (c *Cursor) Enabled() bool {
	if c == nil {
		return false
	}
	return true
}
