package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sweep"
)

// job is one closed-loop unit of work: one sweep workload run on one
// machine under one placement strategy. ranks is the size of the world
// the experiment builds (it is also passed as RunContext.Ranks, which
// only the nas, modern and scale experiments read).
type job struct {
	experiment string // sweep workload name, e.g. "nas/is"
	machine    string
	strategy   string // "" for the strategy-agnostic wr experiments
	seed       uint64
	ranks      int
}

func (j job) String() string {
	s := j.experiment + "/" + j.machine
	if j.strategy != "" {
		s += "/" + j.strategy
	}
	return fmt.Sprintf("%s/seed%d", s, j.seed)
}

// context resolves the job into the sweep entry point's input.
func (j job) context() (*sweep.Workload, sweep.RunContext, error) {
	wl := sweep.WorkloadByName(j.experiment)
	if wl == nil {
		return nil, sweep.RunContext{}, fmt.Errorf("unknown experiment %q", j.experiment)
	}
	m := machine.ByName(j.machine)
	if m == nil {
		return nil, sweep.RunContext{}, fmt.Errorf("unknown machine %q", j.machine)
	}
	ctx := sweep.RunContext{Machine: m, Seed: j.seed, Ranks: j.ranks}
	if j.strategy != "" {
		st, ok := sweep.StrategyByName(j.strategy)
		if !ok {
			return nil, sweep.RunContext{}, fmt.Errorf("unknown strategy %q", j.strategy)
		}
		ctx.Strategy = st
	}
	return wl, ctx, nil
}

// workload is one named benchmark input: a fixed list of jobs run as a
// closed loop, one job at a time.
type workload struct {
	name string
	why  string
	jobs func(seed uint64) []job
	// capture is false where a virtual-time trace of one pass does not
	// fit in host memory.
	capture bool
}

// maxRanks is the largest world among jobs; the world-construction probe
// builds one of that size, shaped like the workload.
func maxRanks(jobs []job) int {
	n := 0
	for _, j := range jobs {
		n = max(n, j.ranks)
	}
	return n
}

// experiments lists every sweep workload the benchmark runs; the app.*
// per-layer metrics are named after them.
var experiments = []string{
	"nas/cg", "nas/ep", "nas/is", "nas/lu", "nas/mg",
	"wr/sge", "wr/offset",
	"imb/sendrecv", "imb/pingpong", "alloc/abinit",
	"moe/dispatch", "kv/decode", "halo/exchange2d",
	"scale/sendrecv", "scale/cg",
}

// workloads are chosen so that each layer an optimisation could target is
// exercised by one workload and bypassed by another (README.md has the
// interaction table).
var workloads = []workload{
	{
		name:    "paper-nas",
		why:     "Fig. 6 NAS kernels on 4 ranks: host time goes to application code, TLB/memmodel charging and regcache",
		jobs:    paperNAS,
		capture: true,
	},
	{
		name:    "paper-micro",
		why:     "Figs. 3-5 registration and DMA data path with no application compute; eager strategies miss regcache, lazy ones hit",
		jobs:    paperMicro,
		capture: true,
	},
	{
		name:    "modern-pack",
		why:     "MoE, tiered KV decode and halo: the only workload where memtier and the migrate/gather policy decisions do work",
		jobs:    modernPack,
		capture: true,
	},
	{
		name:    "scale-1024",
		why:     "1024-rank SendRecv and CG: scheduler, message matching and world construction dominate host time",
		jobs:    scale1024,
		capture: false,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func paperNAS(seed uint64) []job {
	var js []job
	for _, k := range []string{"cg", "ep", "is", "lu", "mg"} {
		for _, s := range []string{"small-lazy", "huge-lazy", "adaptive"} {
			js = append(js, job{experiment: "nas/" + k, machine: "opteron", strategy: s, seed: seed, ranks: 4})
		}
	}
	return js
}

// paperMicro replays a different Abinit trace under each strategy, seeds
// S to S+3. One trace's heap object count moves by up to ±20 % between
// seeds; replayed under all four strategies, one trace spread
// paper-micro's allocs_k by 3 % across ten seeds, four traces by 2 %.
func paperMicro(seed uint64) []job {
	js := []job{
		{experiment: "wr/sge", machine: "systemp", seed: seed, ranks: 1},
		{experiment: "wr/offset", machine: "systemp", seed: seed, ranks: 1},
	}
	strategies := []string{"small", "huge", "small-lazy", "huge-lazy"}
	for _, e := range []string{"imb/sendrecv", "imb/pingpong"} {
		for _, s := range strategies {
			js = append(js, job{experiment: e, machine: "opteron", strategy: s, seed: seed, ranks: 2})
		}
	}
	for i, s := range strategies {
		js = append(js, job{experiment: "alloc/abinit", machine: "opteron", strategy: s, seed: seed + uint64(i), ranks: 1})
	}
	return js
}

func modernPack(seed uint64) []job {
	var js []job
	for _, e := range []string{"moe/dispatch", "kv/decode", "halo/exchange2d"} {
		for _, s := range []string{"small-lazy", "huge-lazy", "adaptive"} {
			for d := uint64(0); d < 3; d++ {
				js = append(js, job{experiment: e, machine: "opteron", strategy: s, seed: seed + d, ranks: 4})
			}
		}
	}
	return js
}

func scale1024(seed uint64) []job {
	return []job{
		{experiment: "scale/sendrecv", machine: "opteron", strategy: "huge-lazy", seed: seed, ranks: 1024},
		{experiment: "scale/cg", machine: "opteron", strategy: "huge-lazy", seed: seed, ranks: 1024},
	}
}
