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
//   - the paper's full evaluation as callable experiments: the Figure 3/4
//     work-request sweeps, the Figure 5 IMB SendRecv curves, the Figure 6
//     NAS benchmark improvement split, and the allocator comparisons.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record; the examples/ directory has runnable
// walkthroughs of this API.
package repro

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/faults"
	"repro/internal/imb"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/sweep"
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
	// NodeStats is one host's aggregated telemetry snapshot; every Rank
	// of a Cluster exposes it through Rank.NodeStats().
	NodeStats = node.Stats
	// NodeStatsReport is the -stats JSON record cmd/repro emits (a
	// []NodeStatsReport array).
	NodeStatsReport = node.Report
	// FaultSpec is a deterministic fault-injection configuration; plug
	// it into ClusterConfig.Faults or NodeConfig.Faults. A nil *FaultSpec
	// disables injection.
	FaultSpec = faults.Spec
	// NASResult is the outcome of one NAS kernel run.
	NASResult = nas.Result
	// Fig6Row is one benchmark's improvement split.
	Fig6Row = nas.Fig6Row
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

// MachineByName resolves "opteron", "xeon" or "systemp".
func MachineByName(name string) *Machine { return machine.ByName(name) }

// ParseFaultSpec parses the -faults syntax of cmd/repro and sweep grids,
// e.g. "seed=7,hugecap=8,memlock=16m". Empty input returns (nil, nil):
// faults disabled.
func ParseFaultSpec(s string) (*FaultSpec, error) { return faults.ParseSpec(s) }

// Machines returns all three systems in the paper's order.
func Machines() []*Machine { return machine.All() }

// The named placement strategies: "small", "huge", "small-lazy" and
// "huge-lazy" are the four Figure 5 curves ("huge-lazy" is the paper's
// full recipe, "small" the do-nothing baseline), "huge-lazy-noatt" the
// unpatched-driver ablation, "threshold" and "adaptive" huge-lazy under
// a live placement-policy engine.
var (
	Strategies     = mpi.Strategies
	StrategyByName = mpi.StrategyByName
	MustStrategy   = mpi.MustStrategy
)

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

// IMBExchange runs the IMB Exchange neighbour pattern.
func IMBExchange(cfg ClusterConfig, sizes []int) ([]imb.ExchangeResult, error) {
	return imb.Exchange(cfg, sizes)
}

// Fig5 runs all four Figure 5 configurations on a machine.
func Fig5(m *Machine, sizes []int) (map[string][]SendRecvResult, error) {
	return imb.RunFig5(ClusterConfig{Machine: m}, sizes)
}

// RegistrationSweep reproduces the registration-cost premise (E9):
// RegMR time for 4 KiB vs 2 MiB placement across buffer sizes.
func RegistrationSweep(m *Machine, sizes []uint64) ([]imb.RegResult, error) {
	return imb.RegistrationSweep(NodeConfig{Machine: m}, sizes)
}

// NASKernels returns the five NAS kernels (cg, ep, is, lu, mg).
func NASKernels() []nas.Kernel { return nas.All() }

// NASKernel resolves a kernel by name.
func NASKernel(name string) nas.Kernel { return nas.ByName(name) }

// RunNAS runs one kernel on a fresh cluster; every placement knob of
// cfg (allocator, lazy deregistration, ATT patch, policy engine)
// reaches the run.
func RunNAS(cfg ClusterConfig, k nas.Kernel) (NASResult, error) { return nas.RunKernel(cfg, k) }

// Fig6 reproduces the NAS improvement split on a machine.
func Fig6(m *Machine, ranks int) ([]Fig6Row, error) {
	return nas.RunFig6(ClusterConfig{Machine: m, Ranks: ranks}, nil)
}

// FormatFig6 renders Figure 6 rows as text.
var FormatFig6 = nas.FormatFig6

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

// SweepGrid is a declarative experiment grid: workloads × machines ×
// placement strategies × fault specs, replicated over seeds.
type SweepGrid = sweep.Grid

// Bench is the canonical BENCH document a sweep renders: per-cell runs,
// statistics and paired strategy comparisons, byte-identical for a given
// grid whatever the worker count or process.
type Bench = sweep.Bench

// SweepRegression is one gate finding: a cell whose primary metric got
// worse than the baseline beyond the tolerance.
type SweepRegression = sweep.Regression

// LoadGrid resolves a built-in grid name ("smoke", "seed") or an
// @file.json grid definition.
var LoadGrid = sweep.LoadGrid

// RunSweep executes a grid on a worker pool (workers <= 0 means
// GOMAXPROCS) and returns the BENCH document plus per-cell run errors;
// a failed cell never aborts its siblings.
func RunSweep(g SweepGrid, workers int) (*Bench, []sweep.RunError, error) {
	return sweep.Execute(g, workers)
}

// GateBench compares a BENCH document against a baseline on each
// workload's primary-metric mean (direction-aware) and returns every
// cell regressed beyond tolPct percent.
var GateBench = sweep.Gate

// NewNode builds one standalone simulated host (for experiments outside
// a Cluster); its NodeStats method is the telemetry snapshot.
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// SumNodeStats totals per-node telemetry snapshots (e.g. from
// Cluster.NodeStats) into one cluster-wide record; the identity fields
// are taken from the first snapshot.
func SumNodeStats(sts []NodeStats) NodeStats { return node.Sum(sts) }

// NewAllocator builds one of the four allocation-library models
// ("libc", "huge", "morecore", "pagesep") on a fresh simulated node.
func NewAllocator(m *Machine, kind string) (Allocator, error) {
	n, err := node.New(node.Config{Machine: m, Allocator: node.AllocatorKind(kind)})
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return n.Alloc, nil
}
