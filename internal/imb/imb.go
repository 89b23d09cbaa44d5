// Package imb reimplements the Intel MPI Benchmarks SendRecv test the
// paper uses for Figure 5, plus the registration-cost sweep (E9) behind
// its Section 5.1 discussion.
//
// IMB SendRecv forms a periodic chain: every rank sends to its right
// neighbour and receives from its left neighbour simultaneously, and the
// reported bandwidth counts both directions (2 x message size per
// iteration), which is how the paper's ~1750 MB/s on a PCIe InfiniHost
// (unidirectional wire ~950 MB/s) comes about.
package imb

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// SendRecvResult is one row of the Figure 5 series.
type SendRecvResult struct {
	Bytes        int
	Iters        int
	TicksPerIter simtime.Ticks
	// BandwidthMBs is the IMB-style bidirectional bandwidth.
	BandwidthMBs float64
	// RegTicks is total registration time spent during the timed phase
	// (separates the two regimes of Figure 5).
	RegTicks simtime.Ticks
	// ATTMissRate is the adapter translation-cache miss rate during the
	// timed phase (the Xeon effect, E4).
	ATTMissRate float64
}

// iterationsFor scales iteration counts down with size like IMB does.
func iterationsFor(bytes int) int {
	switch {
	case bytes <= 64<<10:
		return 40
	case bytes <= 1<<20:
		return 16
	default:
		return 6
	}
}

// SendRecv runs the benchmark under one MPI configuration (Ranks 0 =
// the paper's pair) and returns a row per message size, plus every
// rank's end-of-run host telemetry (one node.Stats per rank) — the
// machine-readable per-node perf record behind the -stats flags.
func SendRecv(cfg mpi.Config, sizes []int) ([]SendRecvResult, []node.Stats, error) {
	if cfg.Ranks == 0 {
		cfg.Ranks = 2
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()
	results := make([]SendRecvResult, len(sizes))
	maxBytes := 0
	for _, s := range sizes {
		if s > maxBytes {
			maxBytes = s
		}
	}
	err = w.Run(func(r *mpi.Rank) error {
		// One send and one receive buffer, reused across all sizes and
		// iterations — exactly IMB's allocation pattern, and what makes
		// lazy deregistration shine.
		sva, err := r.Malloc(uint64(maxBytes))
		if err != nil {
			return err
		}
		rva, err := r.Malloc(uint64(maxBytes))
		if err != nil {
			return err
		}
		if err := r.WriteRamp(sva, 0, maxBytes); err != nil {
			return err
		}
		right := (r.ID() + 1) % r.Size()
		left := (r.ID() - 1 + r.Size()) % r.Size()

		for si, bytes := range sizes {
			iters := iterationsFor(bytes)
			if err := r.Barrier(); err != nil {
				return err
			}
			// Warmup iteration (IMB does this; it also populates the
			// registration cache so the timed phase measures the regime,
			// not the cold start).
			if _, err := r.Sendrecv(right, si, sva, bytes, left, si, rva, bytes); err != nil {
				return err
			}
			if err := r.Barrier(); err != nil {
				return err
			}
			regBefore := r.Verbs().Stats().RegTicks
			attBefore := r.Verbs().HW.Stats()
			t0 := r.Now()
			for it := 0; it < iters; it++ {
				if _, err := r.Sendrecv(right, si, sva, bytes, left, si, rva, bytes); err != nil {
					return err
				}
			}
			elapsed := r.Now() - t0
			if r.ID() == 0 {
				att := r.Verbs().HW.Stats()
				hits := att.ATTHits - attBefore.ATTHits
				miss := att.ATTMisses - attBefore.ATTMisses
				var missRate float64
				if hits+miss > 0 {
					missRate = float64(miss) / float64(hits+miss)
				}
				per := elapsed / simtime.Ticks(iters)
				results[si] = SendRecvResult{
					Bytes:        bytes,
					Iters:        iters,
					TicksPerIter: per,
					BandwidthMBs: 2 * float64(bytes) / (float64(per.Nanos()) / 1000.0), // MB/s with 1e6 B/MB
					RegTicks:     r.Verbs().Stats().RegTicks - regBefore,
					ATTMissRate:  missRate,
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	w.EndTrace()
	return results, w.NodeStats(), nil
}

// Fig5Curve is one Figure 5 curve: the strategy-table entry it runs
// and the paper's legend for it.
type Fig5Curve struct {
	Strategy string
	Label    string
}

// Fig5Curves lists the four curves of Figure 5 in the paper's order:
// small pages, hugepages, small pages + lazy deregistration, hugepages +
// lazy deregistration.
var Fig5Curves = []Fig5Curve{
	{Strategy: "small", Label: "small pages"},
	{Strategy: "huge", Label: "hugepages"},
	{Strategy: "small-lazy", Label: "small pages lazy deregistration"},
	{Strategy: "huge-lazy", Label: "hugepages lazy deregistration"},
}

// RunFig5 runs all four Figure 5 curves under cfg, each curve's
// strategy applied over it, and returns the rows keyed by legend. cfg
// carries the machine, the rank count (0 = the paper's pair; more ranks
// close the SendRecv chain over all of them), the fault spec (every
// curve faces the same deterministic schedule), the placement-policy
// engine and the trace collector. The four configurations share the
// collector, with their timelines prefixed by the strategy name
// ("huge-lazy/rank0", …), so one trace file shows all four regimes side
// by side.
func RunFig5(cfg mpi.Config, sizes []int) (map[string][]SendRecvResult, error) {
	out := make(map[string][]SendRecvResult, len(Fig5Curves))
	for _, c := range Fig5Curves {
		run := mpi.MustStrategy(c.Strategy).Apply(cfg)
		run.TracePrefix = cfg.TracePrefix + c.Strategy + "/"
		res, _, err := SendRecv(run, sizes)
		if err != nil {
			return nil, fmt.Errorf("imb: %s: %w", c.Label, err)
		}
		out[c.Label] = res
	}
	return out, nil
}

// RegResult is one row of the registration-cost sweep (E9).
type RegResult struct {
	Bytes     uint64
	SmallReg  simtime.Ticks
	HugeReg   simtime.Ticks
	HugeFrac  float64 // huge/small
	SmallMTTs int
	HugeMTTs  int
}

// RegistrationSweep measures RegMR cost versus buffer size for 4 KiB and
// 2 MiB placements on fresh hosts built from cfg (its machine, fault
// spec, policy engine and trace collector), with the driver patch
// enabled, as in the paper's modified OpenIB stack. Every sweep size
// gets its own timeline ("reg/4096", "reg/8192", …) with the small-page
// registration followed by the hugepage one, so the MTT fan-out
// difference is visible span-by-span.
func RegistrationSweep(cfg node.Config, sizes []uint64) ([]RegResult, error) {
	cfg.HugeATT = true
	out := make([]RegResult, 0, len(sizes))
	for _, size := range sizes {
		// A fresh warmed host per size, matching the MPI world's setup so
		// registration sweeps see the same physical scatter.
		cfg.TraceName = fmt.Sprintf("reg/%d", size)
		n, err := node.New(cfg)
		if err != nil {
			return nil, err
		}
		as, ctx := n.AS, n.Verbs
		var now simtime.Ticks
		tc := n.Tracer().At(trace.TrackMain, now)

		vaS, err := as.MapSmall(size)
		if err != nil {
			return nil, err
		}
		mrS, tS, err := ctx.RegMRT(tc, vaS, size)
		if err != nil {
			return nil, err
		}
		now += tS
		vaH, err := as.MapHuge(size)
		if err != nil {
			return nil, err
		}
		mrH, tH, err := ctx.RegMRT(n.Tracer().At(trace.TrackMain, now), vaH, size)
		if err != nil {
			return nil, err
		}
		out = append(out, RegResult{
			Bytes:     size,
			SmallReg:  tS,
			HugeReg:   tH,
			HugeFrac:  float64(tH) / float64(tS),
			SmallMTTs: mrS.Entries,
			HugeMTTs:  mrH.Entries,
		})
		n.Mem.Release()
	}
	return out, nil
}
