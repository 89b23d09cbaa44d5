// Package repro is the public API of the reproduction of
//
//	"Improving Communication Performance on InfiniBand by Using
//	 Efficient Data Placement Strategies"
//	(R. Rex, F. Mietke, W. Rehm, C. Raisch, H.-N. Nguyen — CLUSTER 2006)
//
// as a deterministic simulation in pure Go. It exposes:
//
//   - the three evaluated systems (Opteron, Xeon, SystemP) and the whole
//     simulated stack under them (virtual memory, TLBs, IO buses, HCAs
//     with ATT caches, a verbs layer, a pin-down registration cache, and
//     an MVAPICH2-like MPI runtime),
//   - the paper's contribution as one named placement Strategy table
//     (hugepage library placement, lazy deregistration, hugepage ATT
//     entries) applied to a ClusterConfig,
//   - the paper's experiments as callable functions: the Figure 3/4
//     work-request sweeps, the Figure 5 IMB SendRecv curves, IMB PingPong,
//     the registration-cost premise and the allocator comparisons.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record; the examples/ directory has runnable
// walkthroughs of this API.
package repro

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/imb"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/wrbench"
)

// Re-exported foundation types. Aliases keep the internal packages as the
// single source of truth while giving external importers usable names.
type (
	// Machine describes one simulated test system.
	Machine = machine.Machine
	// Ticks is the virtual time unit (TBR ticks, 512 MHz).
	Ticks = simtime.Ticks
	// VA is a simulated virtual address.
	VA = vm.VA
	// Strategy is one named data-placement configuration (the
	// contribution); Apply sets its knobs on a ClusterConfig.
	Strategy = mpi.Strategy
	// Cluster is a running MPI job on simulated hardware.
	Cluster = mpi.World
	// Rank is one MPI process of a Cluster.
	Rank = mpi.Rank
	// ClusterConfig configures a Cluster.
	ClusterConfig = mpi.Config
	// Piece is one element of a non-contiguous buffer.
	Piece = mpi.Piece
	// Allocator is the malloc/free model interface.
	Allocator = alloc.Allocator
	// Node is one simulated host (machine + memory + HCA + allocator).
	Node = node.Node
	// NodeConfig configures a standalone Node.
	NodeConfig = node.Config
	// SendRecvResult is one IMB bandwidth row.
	SendRecvResult = imb.SendRecvResult
	// WRResult is one work-request microbenchmark row.
	WRResult = wrbench.Result
)

// The three test systems of the paper's Section 5.
var (
	Opteron = machine.Opteron
	Xeon    = machine.Xeon
	SystemP = machine.SystemP
)

// Machines returns all three systems in the paper's order.
func Machines() []*Machine { return machine.All() }

// MustStrategy resolves a named placement strategy and panics on an
// unknown name: "small", "huge", "small-lazy" and "huge-lazy" are the
// four Figure 5 curves ("huge-lazy" is the paper's full recipe, "small"
// the do-nothing baseline), "huge-lazy-noatt" the unpatched-driver
// ablation, "threshold" and "adaptive" huge-lazy under a live
// placement-policy engine.
var MustStrategy = mpi.MustStrategy

// NewCluster starts a simulated MPI job; apply a Strategy to cfg to
// choose its placement.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return mpi.NewWorld(cfg) }

// ---- Experiments (one per paper artifact; see EXPERIMENTS.md) ----

// SGESweep reproduces Figure 3: post/poll ticks per (SGE count, SGE size).
func SGESweep(m *Machine, sgeCounts, sgeSizes []int) ([]WRResult, error) {
	return wrbench.SGESweep(NodeConfig{Machine: m}, sgeCounts, sgeSizes)
}

// OffsetSweep reproduces Figure 4: work-request ticks per (offset, size).
func OffsetSweep(m *Machine, offsets, sizes []int) ([]WRResult, error) {
	return wrbench.OffsetSweep(NodeConfig{Machine: m}, offsets, sizes)
}

// IMBSendRecv reproduces one Figure 5 curve under an MPI configuration.
func IMBSendRecv(cfg ClusterConfig, sizes []int) ([]SendRecvResult, error) {
	rs, _, err := imb.SendRecv(cfg, sizes)
	return rs, err
}

// IMBPingPong runs the IMB PingPong latency test (an extension beyond the
// paper's SendRecv; the small-message metric Section 4 feeds into).
func IMBPingPong(cfg ClusterConfig, sizes []int) ([]imb.PingPongResult, error) {
	return imb.PingPong(cfg, sizes)
}

// RegistrationSweep reproduces the registration-cost premise (E9):
// RegMR time for 4 KiB vs 2 MiB placement across buffer sizes.
func RegistrationSweep(m *Machine, sizes []uint64) ([]imb.RegResult, error) {
	return imb.RegistrationSweep(NodeConfig{Machine: m}, sizes)
}

// NASKernels returns the five NAS kernels (cg, ep, is, lu, mg).
func NASKernels() []nas.Kernel { return nas.All() }

// AllocReplay is one allocation library's outcome on a replayed trace.
type AllocReplay = alloc.ReplayResult

// AbinitReplay replays the Abinit-style allocation trace against one of
// the four allocation-library models ("libc", "huge", "morecore",
// "pagesep") on a fresh node — one row of the E7 library comparison.
func AbinitReplay(m *Machine, kind string) (AllocReplay, error) {
	ops, slots := workload.AbinitTrace(workload.DefaultAbinitParams())
	a, err := NewAllocator(m, kind)
	if err != nil {
		return AllocReplay{}, err
	}
	return alloc.Replay(a, ops, slots)
}

// AbinitComparison returns the Abinit-style trace's allocation time
// under the libc model and under the hugepage library — the "up to 10
// times" claim (E7).
func AbinitComparison(m *Machine) (libc, huge Ticks, err error) {
	rl, err := AbinitReplay(m, "libc")
	if err != nil {
		return 0, 0, err
	}
	rh, err := AbinitReplay(m, "huge")
	if err != nil {
		return 0, 0, err
	}
	return rl.AllocTime, rh.AllocTime, nil
}

// NewNode builds one standalone simulated host (for experiments outside
// a Cluster); its Stats method is the telemetry snapshot.
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// NewAllocator builds one of the four allocation-library models
// ("libc", "huge", "morecore", "pagesep") on a fresh simulated node.
func NewAllocator(m *Machine, kind string) (Allocator, error) {
	n, err := node.New(node.Config{Machine: m, Allocator: node.AllocatorKind(kind)})
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return n.Alloc, nil
}
