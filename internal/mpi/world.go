// Package mpi is a miniature MPI runtime over the simulated InfiniBand
// stack, modelled on MVAPICH2 0.9.x as used in the paper's Section 5:
// eager copy through preregistered bounce buffers up to 16 KiB, and an
// RDMA-write rendezvous above 16 KiB whose buffers are registered through
// the pin-down cache (lazy deregistration on or off). Collectives are
// built from point-to-point. Each rank runs as a task on the world's
// deterministic event scheduler (internal/sched) with its own virtual
// clock; message timestamps synchronise the clocks pairwise, and the
// scheduler's (time, rank, sequence) run-queue order makes the whole
// execution schedule a pure function of simulation state.
//
// Placement enters through the per-rank allocator: buffers allocated with
// the hugepage library land in hugepages, which changes registration
// cost, ATT behaviour and (via internal/memmodel) compute time — the full
// causal chain of the paper.
package mpi

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/memtier"
	"repro/internal/node"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// AllocatorKind selects the per-rank allocation library — the variable of
// the whole experiment.
type AllocatorKind = node.AllocatorKind

// Allocator kinds.
const (
	AllocLibc     = node.AllocLibc
	AllocHuge     = node.AllocHuge
	AllocMorecore = node.AllocMorecore
	AllocPageSep  = node.AllocPageSep
)

// Protocol constants, MVAPICH2's values:
//   - rdmaLimit is the protocol switch point: messages up to it go eager
//     (copied through bounce buffers), larger ones RDMA-write rendezvous;
//   - eagerCredits is the per-peer eager buffer (vbuf) count; senders
//     block when the receiver has not drained its bounce buffers;
//   - channelDepth is the per-peer unexpected-message queue depth.
const (
	rdmaLimit    = 16 << 10
	eagerCredits = 64
	channelDepth = 4096
)

// Config describes one job.
type Config struct {
	Machine *machine.Machine
	Ranks   int
	// Allocator is the allocation library preloaded into every rank.
	Allocator AllocatorKind
	// LazyDereg enables the registration cache (Figure 5's two regimes).
	LazyDereg bool
	// HugeATT enables the OpenIB driver patch (2 MiB translations).
	HugeATT bool
	// Policy selects the per-rank placement-policy engine ("static",
	// "threshold", "adaptive"); empty builds none — the legacy fixed
	// strategies with zero policy code on any path. See internal/policy.
	Policy string
	// Tiers enables the tiered-memory model on every rank's host (nil =
	// flat DRAM, zero cost on any path). See internal/memtier.
	Tiers *memtier.Config
	// Faults enables deterministic fault injection on every rank's host
	// (nil = no faults). Each rank is salted with its rank number, so
	// the hosts run decorrelated schedules that replay bit-identically.
	Faults *faults.Spec
	// Trace, when set, records every rank's activity into the collector
	// (nil = no tracing; disabled tracing is allocation-free on the hot
	// paths). Timelines are named "rank0", "rank1", … — prefixed with
	// TracePrefix, which lets several worlds (benchmark configurations)
	// share one collector without colliding.
	Trace       *trace.Collector
	TracePrefix string
}

// nodeConfig is the homogeneous per-rank host configuration the job
// implies.
func (c Config) nodeConfig() node.Config {
	return node.Config{
		Machine:   c.Machine,
		Allocator: c.Allocator,
		LazyDereg: c.LazyDereg,
		HugeATT:   c.HugeATT,
		Faults:    c.Faults,
		Trace:     c.Trace,
		Policy:    c.Policy,
		Tiers:     c.Tiers,
	}
}

func (c Config) withDefaults() Config {
	if c.Allocator == "" {
		c.Allocator = AllocLibc
	}
	return c
}

// World is one running job.
type World struct {
	cfg   Config
	nodes []*node.Node
	ranks []*Rank

	// sched is the job's event scheduler: it owns the run queue, the
	// park/wake machinery behind every blocking MPI primitive, and the
	// abort flag that makes ranks blocked in message matching fail fast
	// when a peer errors (the simulator's equivalent of MPI_Abort).
	sched *sched.Scheduler

	// closed is set by Close; a closed world refuses to Run.
	closed bool

	// eagerFree holds eager messages whose receivers have copied the
	// payload out, ready for the next eager or gathered send — the
	// host-side image of the library's preregistered bounce buffers.
	// Only the task holding the scheduler's baton touches it, so it
	// needs no lock.
	eagerFree []*message
}

// NewWorld builds a job: one node (physical memory + HCA + address space
// + allocator + registration cache) per rank. The paper runs 2 nodes with
// 4 processes each; we give every rank its own node and route all traffic
// through the HCA — a documented deviation (DESIGN.md §8) that removes
// shared-memory shortcuts without changing who wins.
func NewWorld(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpi: config needs a machine")
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("mpi: need at least 1 rank, got %d", cfg.Ranks)
	}
	w := &World{cfg: cfg, sched: sched.New()}
	for i := 0; i < cfg.Ranks; i++ {
		ncfg := cfg.nodeConfig()
		ncfg.FaultSalt = uint64(i)
		ncfg.TraceName = fmt.Sprintf("%srank%d", cfg.TracePrefix, i)
		n, err := node.New(ncfg)
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d: %w", i, err)
		}
		r := &Rank{
			id:    i,
			world: w,
			node:  n,
			as:    n.AS,
			ctx:   n.Verbs,
			cache: n.Cache,
			alloc: n.Alloc,
			dtlb:  n.DTLB,
			inj:   n.Faults(),
			tr:    n.Tracer(),
			cur:   n.TraceCursor(),
		}
		w.nodes = append(w.nodes, n)
		w.ranks = append(w.ranks, r)
	}
	// Mailboxes, unexpected-message queues and eager credit pools are
	// created lazily per peer pair (see Rank.inboxQ/creditQ): world
	// construction stays O(ranks), not O(ranks²), which is what lets a
	// 1024-rank world come up in milliseconds.
	for _, r := range w.ranks {
		r.inbox = make(map[int]*sched.Queue[*message])
		r.pending = make(map[int][]*message)
		r.credits = make(map[int]*sched.Queue[simtime.Ticks])
		r.flowSeq = make(map[int]uint64)
	}
	return w, nil
}

// eagerMessage returns an eager message with an n-byte payload, reusing
// a recycled message and its payload capacity when one is free.
func (w *World) eagerMessage(n int) *message {
	var m *message
	if k := len(w.eagerFree); k > 0 {
		m = w.eagerFree[k-1]
		w.eagerFree[k-1] = nil
		w.eagerFree = w.eagerFree[:k-1]
	} else {
		m = &message{kind: kindEager}
	}
	if cap(m.data) < n {
		m.data = make([]byte, n)
	}
	m.data = m.data[:n]
	return m
}

// recycleEager returns a received eager message to the free list. The
// receiver must hold no reference to it or its payload afterwards.
// Sends through the bounce buffers and SendGathered both draw their
// messages from the list, so a repeated exchange reuses the same
// payload buffers.
func (w *World) recycleEager(m *message) {
	*m = message{kind: kindEager, data: m.data[:0]}
	w.eagerFree = append(w.eagerFree, m)
}

// Config returns the job configuration (defaults resolved).
func (w *World) Config() Config { return w.cfg }

// Rank returns rank i (for post-run inspection).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// NodeStats snapshots every rank's host telemetry, in rank order. Call
// it only while no rank body is running (before Run or after it
// returns); snapshots race with in-flight ranks otherwise.
func (w *World) NodeStats() []node.Stats {
	out := make([]node.Stats, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.Stats()
	}
	return out
}

// Run executes body once per rank as tasks on the world's event
// scheduler and returns when all ranks finish. A rank's error aborts the
// job: every parked peer's pending blocking operation fails with
// ErrAborted, so the tasks unwind instead of deadlocking. The scheduler
// dispatches tasks in (virtual time, rank, wake order), so the execution
// schedule — and every result — is identical under any GOMAXPROCS.
func (w *World) Run(body func(r *Rank) error) error {
	if w.closed {
		return errors.New("mpi: Run on a closed world")
	}
	errs := make([]error, len(w.ranks))
	for i, r := range w.ranks {
		i, r := i, r
		r.task = w.sched.Spawn(i, &r.clock, func(*sched.Task) (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("mpi: rank %d panic: %v", i, p)
				}
				errs[i] = err
			}()
			return body(r)
		})
	}
	schedErr := w.sched.Run()
	for _, r := range w.ranks {
		r.task = nil
	}
	// Prefer reporting a root-cause error over the secondary "job
	// aborted" errors of ranks that were merely cut off mid-receive; a
	// deadlock report outranks those too.
	var fallback error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			if fallback == nil {
				fallback = fmt.Errorf("mpi: rank %d: %w", i, err)
			}
			continue
		}
		return fmt.Errorf("mpi: rank %d: %w", i, err)
	}
	if schedErr != nil {
		return schedErr
	}
	return fallback
}

// closeCollectBytes is the frame contents a world must drop on Close
// for Close to collect the Go heap as well. A world this large leaves
// its frames and its kernels' host arrays as garbage; left to the
// collector's pacing, the next world's memory piles onto it, and a run
// of such worlds peaks anywhere between one and two worlds' footprint,
// depending on where the collection cycles happened to fall. Smaller
// worlds skip the collection, which would cost more host time than the
// world took.
const closeCollectBytes = 8 << 20

// Close releases what a finished world no longer needs: the contents of
// every node's physical frames, and, once those reach closeCollectBytes,
// the garbage the world leaves on the Go heap. Call it once the results
// have been read; clocks, telemetry and the trace stay readable, but
// memory contents read as zeros and Run fails. A second Close does
// nothing.
func (w *World) Close() {
	if w.closed {
		return
	}
	w.closed = true
	dropped := 0
	for _, n := range w.nodes {
		dropped += n.Mem.Release()
	}
	if dropped >= closeCollectBytes {
		runtime.GC()
	}
}

// ErrAborted marks errors caused by another rank's failure.
var ErrAborted = errors.New("job aborted by peer failure")

// MaxTime reports the latest rank clock — the job's makespan.
func (w *World) MaxTime() simtime.Ticks {
	var t simtime.Ticks
	for _, r := range w.ranks {
		t = simtime.Max(t, r.clock.Now())
	}
	return t
}

// EndTrace stamps every rank's timeline with a job.end marker at the
// job's makespan, so the trace's elapsed time equals MaxTime even for
// ranks that went idle early. Call it after Run, before writing the
// trace. A world without tracing ignores the call.
func (w *World) EndTrace() {
	if w.cfg.Trace == nil {
		return
	}
	end := w.MaxTime()
	for _, r := range w.ranks {
		r.tr.At(trace.TrackMain, end).Event(trace.LApp, "job.end")
	}
}
