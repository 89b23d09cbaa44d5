package nas

import (
	"fmt"
	"math"

	"repro/internal/memmodel"
	"repro/internal/mpi"
)

// EP is the embarrassingly-parallel kernel: batches of pseudo-random
// Gaussian pairs generated and binned locally, with per-batch statistics
// tables reduced across ranks. EP is where Section 5.2's TLB paradox
// shows: its hot data is a set of small tables scattered across the
// address space — comfortable in 544 small-page TLB entries, hopeless in
// 8 hugepage entries ("TLB misses increased dramatically with hugepages
// (up to eight times with EP)") — while its bulk pass still enjoys the
// prefetcher's love of physical contiguity.
//
// The per-batch statistics table is allocated and freed around each
// batch (Fortran automatic arrays), so every batch re-registers its
// reduction buffer: the allocation-placement / registration interplay
// that gives EP its communication-time win under hugepages.
type EP struct {
	Batches int
	Pairs   int // Gaussian pairs per batch (real arithmetic)
	// TableTouches is the modelled count of scattered-table updates per
	// batch (charged through memmodel.ScatteredTables).
	TableTouches int64
}

// DefaultEP returns the reduced class-C-shaped instance.
func DefaultEP() *EP {
	return &EP{Batches: 12, Pairs: 20000, TableTouches: 6500}
}

// Name implements Kernel.
func (*EP) Name() string { return "ep" }

// epRand is the NAS linear congruential generator (a = 5^13, mod 2^46).
type epRand struct{ seed float64 }

const (
	epA    = 1220703125.0
	epMod  = 1 << 46
	epRMod = 1.0 / (1 << 46)
)

func (g *epRand) next() float64 {
	// Split multiply mod 2^46 in doubles, as in the NAS vranlc source.
	const t23, r23 = float64(1 << 23), 1.0 / (1 << 23)
	a1 := math.Trunc(r23 * epA)
	a2 := epA - t23*a1
	x1 := math.Trunc(r23 * g.seed)
	x2 := g.seed - t23*x1
	t1 := a1*x2 + a2*x1
	t2 := math.Trunc(r23 * t1)
	z := t1 - t23*t2
	t3 := t23*z + a2*x2
	g.seed = t3 - float64(epMod)*math.Trunc(epRMod*t3)
	return epRMod * g.seed
}

// Run implements Kernel.
func (k *EP) Run(r *mpi.Rank) error {
	// The bulk sample buffer: streamed every batch (prefetch-sensitive).
	// Sized to fit the 4 KiB TLB reach so steady-state small-page misses
	// stay near zero — EP's footprint really is TLB-friendly, which is
	// what makes the hugepage blowup so stark.
	const bulkBytes = 3 << 19
	bulkVA, err := r.Malloc(bulkBytes)
	if err != nil {
		return err
	}
	const bulkSpillBytes = 8 << 20
	bulkSpillVA, err := r.Malloc(bulkSpillBytes)
	if err != nil {
		return err
	}
	// The scattered-table arena: one hot table per 2 MiB stride.
	const numTables, tableBytes = 40, 2048
	arenaBytes := uint64(numTables) * (2 << 20)
	arenaVA, err := r.Malloc(arenaBytes)
	if err != nil {
		return err
	}

	g := &epRand{seed: float64(271828183 ^ (r.ID() + 1))}
	var q [10]float64 // annulus counts
	var sx, sy float64
	accepted := 0

	for b := 0; b < k.Batches; b++ {
		// Real arithmetic: Marsaglia polar acceptance over NAS LCG.
		var qb [10]float64
		for i := 0; i < k.Pairs; i++ {
			x := 2*g.next() - 1
			y := 2*g.next() - 1
			t := x*x + y*y
			if t <= 1 && t > 0 {
				f := math.Sqrt(-2 * math.Log(t) / t)
				gx, gy := x*f, y*f
				sx += gx
				sy += gy
				m := int(math.Max(math.Abs(gx), math.Abs(gy)))
				if m < 10 {
					qb[m]++
				}
				accepted++
			}
		}
		for i := range q {
			q[i] += qb[i]
		}
		// Charge the batch's memory behaviour: one streaming pass over
		// the sample buffer, then the scattered table updates.
		charge(r, memmodel.SeqScan{Passes: 8}, region(r, bulkVA, bulkBytes))
		charge(r, memmodel.ScatteredTables{
			NumTables:  numTables,
			TableBytes: tableBytes,
			Count:      k.TableTouches,
		}, region(r, arenaVA, arenaBytes))
		// Occasional spills beyond the 4 KiB reach (table rehash): over a
		// region that costs both page sizes alike once the hugepage file
		// is being thrashed by the tables above.
		charge(r, memmodel.Random{Count: 540, Seed: uint64(b + 5)},
			region(r, bulkSpillVA, bulkSpillBytes))

		// Per-batch statistics exchange: automatic arrays, allocated and
		// freed around the exchange — every batch re-registers its
		// buffers, which is where hugepages win EP communication time.
		if err := epButterfly(r, b, qb[:]); err != nil {
			return err
		}
	}

	// Final reduction and verification: annulus counts must sum to the
	// global accepted count (conservation), and the Gaussian means must
	// be near zero.
	sumVA, err := r.Malloc(256)
	if err != nil {
		return err
	}
	vals := []float64{float64(accepted), sx, sy}
	vals = append(vals, q[:]...)
	if err := r.WriteF64(sumVA, vals); err != nil {
		return err
	}
	if err := r.AllreduceF64(sumVA, len(vals), mpi.Sum); err != nil {
		return err
	}
	out := make([]float64, len(vals))
	if err := r.ReadF64(sumVA, out); err != nil {
		return err
	}
	totalAccepted, gsx, gsy := out[0], out[1], out[2]
	var qsum float64
	for _, v := range out[3:] {
		qsum += v
	}
	if qsum != totalAccepted {
		return fmt.Errorf("ep: VERIFICATION FAILED: annulus counts %v != accepted %v", qsum, totalAccepted)
	}
	if totalAccepted == 0 {
		return fmt.Errorf("ep: VERIFICATION FAILED: no samples accepted")
	}
	if mean := math.Abs(gsx/totalAccepted) + math.Abs(gsy/totalAccepted); mean > 0.05 {
		return fmt.Errorf("ep: VERIFICATION FAILED: Gaussian mean drift %g", mean)
	}
	return nil
}

// epButterfly reduces the batch statistics table across all ranks with a
// recursive-doubling exchange. The table and every round's receive buffer
// are automatic arrays — allocated fresh, used once, freed — so each hop
// pays a registration, 512x cheaper in hugepages.
func epButterfly(r *mpi.Rank, batch int, stats []float64) error {
	const qTableBytes = 96 << 10
	p := r.Size()
	if p&(p-1) != 0 {
		return fmt.Errorf("ep: butterfly needs power-of-two ranks, got %d", p)
	}
	qVA, err := r.Malloc(qTableBytes)
	if err != nil {
		return err
	}
	table := make([]float64, 16)
	copy(table, stats)
	if err := r.WriteF64(qVA, table); err != nil {
		return err
	}
	// One receive temp per batch, reused across the rounds (as an MPI
	// library would reuse its allreduce temp within one call).
	rVAbuf, err := r.Malloc(qTableBytes)
	if err != nil {
		return err
	}
	for mask, round := 1, 0; mask < p; mask, round = mask<<1, round+1 {
		peer := r.ID() ^ mask
		tag := 800 + batch*8 + round
		if _, err := r.Sendrecv(peer, tag, qVA, qTableBytes,
			peer, tag, rVAbuf, qTableBytes); err != nil {
			return err
		}
		var mine, theirs [16]float64
		if err := r.ReadF64(qVA, mine[:]); err != nil {
			return err
		}
		if err := r.ReadF64(rVAbuf, theirs[:]); err != nil {
			return err
		}
		for i := range mine {
			mine[i] += theirs[i]
		}
		if err := r.WriteF64(qVA, mine[:]); err != nil {
			return err
		}
	}
	if err := r.Free(rVAbuf); err != nil {
		return err
	}
	// The reduced table is checked against local contribution sanity:
	// global counts can never be below this rank's own.
	var got [16]float64
	if err := r.ReadF64(qVA, got[:]); err != nil {
		return err
	}
	for i, v := range stats {
		if got[i] < v {
			return fmt.Errorf("ep: VERIFICATION FAILED: reduced q[%d]=%g < local %g", i, got[i], v)
		}
	}
	return r.Free(qVA)
}
