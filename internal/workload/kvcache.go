// kvcache.go is the LLM-inference KV-cache workload of the modern pack:
// per rank, a transformer's per-layer KV arenas live on the tiered
// memory model (internal/memtier), placed by the HBM/external
// best-ratio rule of SNIPPETS.md §3 — the fraction of cache kept on the
// fast tier equals fast bandwidth over total bandwidth. Decode steps
// append a token, attend over a recent window, and fetch a few
// retrieved (old) tokens; a retrieved token resident on the slow tier
// triggers the migrate-versus-recompute decision: promote its page
// (paying the modeled copy — a whole 2 MiB under hugepages, one 4 KiB
// page otherwise, which is where placement strategy bites) or recompute
// the KV in place. The decision routes through the policy engine's
// DecideMigrate, so the adaptive policy can refuse promotions the fast
// tier cannot hold.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/memtier"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// KVParams sizes the KV-cache decode workload.
type KVParams struct {
	Seed       uint64
	Layers     int    // transformer layers, one KV arena each
	LayerBytes uint64 // arena size (>= the hugepage threshold, so the
	// hugepage library backs each arena with 2 MiB pages)
	TokenBytes int // KV row per token per layer
	Prefill    int // tokens written before decoding starts
	Decode     int // decode steps
	Window     int // recent tokens attended every step
	Retrieve   int // old tokens fetched per step (the slow-tier hits)
	// RecomputeFactor scales the cost of recomputing one retrieved
	// token's KV relative to streaming its bytes once.
	RecomputeFactor int
	// FastBytes is the fast tier's capacity; SlowTouchTicks and
	// SlowBandwidthMBs parameterise the slow tier (see memtier.TwoTier).
	FastBytes        int64
	SlowTouchTicks   simtime.Ticks
	SlowBandwidthMBs float64
	// SyncF64s is the per-step allreduce length (logit sync).
	SyncF64s int
}

// DefaultKVParams: 16 × 2 MiB arenas (16 distinct hugepages — more than
// the Opteron's 8-entry 2 MiB TLB holds, the Figure-6-style pressure
// point), a fast tier holding a quarter of the cache, and enough
// retrieved tokens that migrate-vs-recompute fires every step.
func DefaultKVParams() KVParams {
	return KVParams{
		Seed:             1,
		Layers:           16,
		LayerBytes:       2 << 20,
		TokenBytes:       4 << 10,
		Prefill:          192,
		Decode:           24,
		Window:           16,
		Retrieve:         8,
		RecomputeFactor:  16,
		FastBytes:        8 << 20,
		SlowTouchTicks:   150,
		SlowBandwidthMBs: 800,
		SyncF64s:         4096,
	}
}

// KVResult aggregates the run across ranks.
type KVResult struct {
	PrefillTicks simtime.Ticks // summed over ranks
	DecodeTicks  simtime.Ticks // summed over ranks
	Makespan     simtime.Ticks
	Migrations   int64 // retrieved tokens promoted to the fast tier
	Recomputes   int64 // retrieved tokens recomputed in place
	Demotions    int64 // cold pages pushed back to the slow tier
}

// Tiers returns the two-tier memtier configuration the parameters
// imply; wire it into mpi.Config.Tiers (RunKV does this itself).
func (p KVParams) Tiers() *memtier.Config {
	return memtier.TwoTier(p.FastBytes, p.SlowTouchTicks, p.SlowBandwidthMBs)
}

// fastRatio is the SNIPPETS.md §3 best-ratio split: the fraction of
// the cache to keep on the fast tier equals the fast tier's share of
// total bandwidth.
func (p KVParams) fastRatio(fastMBs float64) float64 {
	if p.SlowBandwidthMBs <= 0 {
		return 1
	}
	return fastMBs / (fastMBs + p.SlowBandwidthMBs)
}

// RunKV executes the workload on a fresh world built from cfg (its
// Tiers field is overridden from the parameters).
func RunKV(cfg mpi.Config, p KVParams) (*KVResult, error) {
	if p.Prefill+p.Decode > int(p.LayerBytes)/p.TokenBytes {
		return nil, fmt.Errorf("workload: kv: %d tokens exceed layer arena", p.Prefill+p.Decode)
	}
	cfg.Tiers = p.Tiers()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	res := &KVResult{}
	pre := make([]simtime.Ticks, cfg.Ranks)
	dec := make([]simtime.Ticks, cfg.Ranks)
	mig := make([]int64, cfg.Ranks)
	rec := make([]int64, cfg.Ranks)
	dem := make([]int64, cfg.Ranks)
	err = w.Run(func(r *mpi.Rank) error {
		tiers := r.Node().Tiers
		rng := rand.New(rand.NewSource(int64(p.Seed)<<32 ^ int64(r.ID())))
		// One arena per layer: separate allocations, so the hugepage
		// library backs each with its own 2 MiB page(s).
		arenas := make([]vm.VA, p.Layers)
		for l := range arenas {
			va, err := r.Malloc(p.LayerBytes)
			if err != nil {
				return err
			}
			arenas[l] = va
		}
		tokVA := func(l, t int) vm.VA { return arenas[l] + vm.VA(t*p.TokenBytes) }
		// Best-ratio placement: the leading fraction of every arena is
		// pinned to the fast tier, the tail to the slow tier. First-touch
		// would fill the fast tier with the first arenas only; the
		// explicit split keeps every layer's hot head fast.
		ratio := p.fastRatio(cfg.Machine.Mem.CopyBandwidthMBs)
		for _, va := range arenas {
			fastLen := uint64(float64(p.LayerBytes) * ratio)
			if fastLen > 0 {
				if err := r.TierAssign(va, fastLen, 0); err != nil {
					return err
				}
			}
			if fastLen < p.LayerBytes {
				if err := r.TierAssign(va+vm.VA(fastLen), p.LayerBytes-fastLen, 1); err != nil {
					return err
				}
			}
		}
		// Token (l, t)'s KV row is byte(r.ID() + l*31 + t*7 + i).
		writeTok := func(l, t int) error {
			return r.WriteRamp(tokVA(l, t), r.ID()+l*31+t*7, p.TokenBytes)
		}
		// Prefill.
		t0 := r.Now()
		for t := 0; t < p.Prefill; t++ {
			for l := 0; l < p.Layers; l++ {
				if err := writeTok(l, t); err != nil {
					return err
				}
			}
		}
		pre[r.ID()] = r.Now() - t0
		// Decode.
		t0 = r.Now()
		// coldIdx walks the prefill region round-robin so each
		// make-room demotion frees a fresh page.
		coldIdx := 0
		syncVA, err := r.Malloc(uint64(8 * p.SyncF64s))
		if err != nil {
			return err
		}
		sync := make([]float64, p.SyncF64s)
		var pageBuf []vm.Page // the promotion unit's lookup buffer
		for s := 0; s < p.Decode; s++ {
			t := p.Prefill + s
			for l := 0; l < p.Layers; l++ {
				// Append this step's KV row.
				if err := writeTok(l, t); err != nil {
					return err
				}
				// Attend over the recent window: one streaming read per
				// layer — touches few 4 KiB pages, but a distinct 2 MiB
				// page per layer, which is what thrashes the large-page
				// TLB when the arenas are hugepage-backed.
				lo := t - p.Window + 1
				if lo < 0 {
					lo = 0
				}
				if err := r.Touch(tokVA(l, lo), (t-lo+1)*p.TokenBytes); err != nil {
					return err
				}
			}
			// Retrieved tokens (prefix-cache / RAG hits): old positions,
			// likely on the slow tier. Promote or recompute, per policy.
			for k := 0; k < p.Retrieve; k++ {
				l := rng.Intn(p.Layers)
				old := rng.Intn(p.Prefill)
				va := tokVA(l, old)
				if tiers != nil && r.TierOf(va) != 0 {
					// The promotion unit is the page backing the row — a
					// whole 2 MiB under hugepages, 4 KiB otherwise — so
					// price and budget what would actually move.
					unit := uint64(p.TokenBytes)
					// Pages leaves the buffer empty on an error.
					pageBuf, _ = r.AS().Pages(pageBuf[:0], va, uint64(p.TokenBytes))
					if len(pageBuf) > 0 {
						unit = pageBuf[0].Class.Size()
					}
					migCost := tiers.MigrateCost(1, unit)
					recCost := simtime.BandwidthTicks(int64(p.TokenBytes*p.RecomputeFactor),
						cfg.Machine.Mem.CopyBandwidthMBs)
					if r.Node().Policy().DecideMigrate(unit, tiers.FreeBytes(0), migCost, recCost) {
						moved, err := r.TierPromote(va, uint64(p.TokenBytes))
						if err != nil {
							return err
						}
						if moved > 0 {
							mig[r.ID()]++
						} else {
							// Fast tier full: demote a cold prefill page to
							// make room, then retry once.
							cold := tokVA(coldIdx%p.Layers, (coldIdx/p.Layers)%p.Prefill)
							coldIdx++
							if _, err := r.TierDemote(cold, uint64(p.TokenBytes)); err != nil {
								return err
							}
							dem[r.ID()]++
							if moved, err = r.TierPromote(va, uint64(p.TokenBytes)); err != nil {
								return err
							} else if moved > 0 {
								mig[r.ID()]++
							} else {
								r.Compute(recCost)
								rec[r.ID()]++
							}
						}
					} else {
						r.Compute(recCost)
						rec[r.ID()]++
					}
				}
				// The retrieved row is read either way.
				if err := r.Touch(va, p.TokenBytes); err != nil {
					return err
				}
			}
			// Logit sync across the serving group.
			for i := range sync {
				sync[i] = float64(r.ID()*p.SyncF64s+i+s) * 0.25
			}
			if err := r.WriteF64(syncVA, sync); err != nil {
				return err
			}
			if err := r.AllreduceF64(syncVA, p.SyncF64s, mpi.Sum); err != nil {
				return err
			}
		}
		dec[r.ID()] = r.Now() - t0
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Ranks; i++ {
		res.PrefillTicks += pre[i]
		res.DecodeTicks += dec[i]
		res.Migrations += mig[i]
		res.Recomputes += rec[i]
		res.Demotions += dem[i]
	}
	res.Makespan = w.MaxTime()
	return res, nil
}
