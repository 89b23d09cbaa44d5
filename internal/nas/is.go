package nas

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/vm"
)

// IS is the integer-sort kernel: each iteration generates keys, counts
// them into buckets, agrees on bucket ownership, exchanges keys with an
// all-to-all-v, and verifies the resulting global order. IS is the
// paper's problem child — the one benchmark whose overall time got
// *worse* with hugepages: its communication is dominated by large
// alltoallv payloads (so registration savings barely show), while its
// bucket-counting phase hops across many small hot regions, which is
// poison for the Opteron's 8 hugepage TLB entries.
type IS struct {
	KeysPerRank int
	Iters       int
	// MaxKey bounds the keys, which lie in [0, MaxKey). It must be a
	// power of two, as NAS's MAX_KEY = 2^MAX_KEY_LOG_2 is.
	MaxKey int
	// BucketTouches is the modelled per-iteration count of scattered
	// bucket-structure updates.
	BucketTouches int64
}

// DefaultIS returns the reduced class-C-shaped instance.
func DefaultIS() *IS {
	return &IS{KeysPerRank: 131072, Iters: 16, MaxKey: 1 << 20, BucketTouches: 3000}
}

// Name implements Kernel.
func (*IS) Name() string { return "is" }

// isRand is a deterministic per-rank key generator (xorshift).
type isRand struct{ s uint64 }

func (g *isRand) next() uint64 {
	g.s ^= g.s << 13
	g.s ^= g.s >> 7
	g.s ^= g.s << 17
	return g.s
}

// radixSort sorts keys, every one below maxKey (at most 2^32), into
// ascending order by least-significant-digit radix sort, with scratch (at
// least len(keys) long) as the second buffer. It makes one counting pass
// per 11-bit digit of maxKey-1: two at the default MaxKey of 2^20.
func radixSort(keys, scratch []uint32, maxKey int) {
	const digitBits = 11
	const mask = 1<<digitBits - 1
	width := bits.Len32(uint32(maxKey - 1))
	src, dst := keys, scratch[:len(keys)]
	for shift := 0; shift < width; shift += digitBits {
		var count [mask + 1]int
		for _, key := range src {
			count[key>>shift&mask]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, key := range src {
			d := key >> shift & mask
			dst[count[d]] = key
			count[d]++
		}
		src, dst = dst, src
	}
	if len(keys) > 0 && &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// Run implements Kernel.
func (k *IS) Run(r *mpi.Rank) error {
	if k.MaxKey <= 0 || k.MaxKey&(k.MaxKey-1) != 0 {
		return fmt.Errorf("is: MaxKey=%d is not a power of two", k.MaxKey)
	}
	p := r.Size()
	keyBytes := 4 * k.KeysPerRank
	// Fixed-stride send and receive layouts: slot d holds traffic for/
	// from rank d at a constant offset, as in the Fortran IS source —
	// which is what lets the pin-down cache reuse registrations across
	// iterations despite the per-iteration count variation.
	slotBytes := 4 * keyBytes / p // generous: ~4x the average partition
	sendVA, err := r.Malloc(uint64(slotBytes * p))
	if err != nil {
		return err
	}
	recvCap := slotBytes * p
	recvVA, err := r.Malloc(uint64(recvCap))
	if err != nil {
		return err
	}
	// The scattered bucket arena (hot counting structures).
	const numBuckets, bucketBytes = 44, 1536
	arenaBytes := uint64(numBuckets) * (2 << 20)
	arenaVA, err := r.Malloc(arenaBytes)
	if err != nil {
		return err
	}
	countVA, err := r.Malloc(uint64(8 * p))
	if err != nil {
		return err
	}

	g := &isRand{s: uint64(0x9E3779B9<<8) ^ uint64(r.ID()+1)}
	keysPerBucket := (k.MaxKey + p - 1) / p

	// Host buffers reused by every iteration. A rank receives about
	// KeysPerRank keys; mine and the radix scratch grow only past that,
	// and no slot holds more than slotBytes.
	keys := make([]uint32, k.KeysPerRank)
	scratch := make([]uint32, k.KeysPerRank)
	mine := make([]uint32, 0, k.KeysPerRank)
	buf := make([]byte, slotBytes)

	for it := 0; it < k.Iters; it++ {
		// Key generation: one streaming pass over the key array.
		for i := range keys {
			keys[i] = uint32(g.next() & uint64(k.MaxKey-1))
		}
		charge(r, memmodel.SeqScan{Passes: 1}, region(r, sendVA, uint64(keyBytes)))

		// Bucket counting: random hops over the key range histogram plus
		// the scattered hot bucket structures.
		charge(r, memmodel.ScatteredTables{
			NumTables:  numBuckets,
			TableBytes: bucketBytes,
			Count:      k.BucketTouches,
		}, region(r, arenaVA, arenaBytes))

		// Bucketed sort: sort the keys once, so each destination rank's
		// partition (bucket = key / keysPerBucket, the last rank taking
		// the remainder) is a contiguous, already sorted run.
		radixSort(keys, scratch, k.MaxKey)
		sc := make([]int, p)
		sd := make([]int, p)
		start := 0
		for d := 0; d < p; d++ {
			end := len(keys)
			if d < p-1 {
				end = start
				for end < len(keys) && int(keys[end]) < (d+1)*keysPerBucket {
					end++
				}
			}
			part := keys[start:end]
			start = end
			sd[d] = d * slotBytes
			sc[d] = 4 * len(part)
			if sc[d] > slotBytes {
				return fmt.Errorf("is: partition %d overflows its slot (%d > %d)", d, sc[d], slotBytes)
			}
			for i, key := range part {
				binary.LittleEndian.PutUint32(buf[4*i:], key)
			}
			if err := r.WriteBytes(sendVA+vm.VA(sd[d]), buf[:sc[d]]); err != nil {
				return err
			}
		}

		// Agree on counts (alltoall of sizes via allreduce of a p-vector
		// per destination is overkill; exchange counts pairwise like the
		// real IS does with MPI_Alltoall on counts).
		myCounts := make([]float64, p)
		for d := 0; d < p; d++ {
			myCounts[d] = float64(sc[d])
		}
		// counts matrix row exchange: each rank learns what it will
		// receive from everyone via an alltoall of one int each.
		rcounts, err := isExchangeCounts(r, countVA, myCounts, it)
		if err != nil {
			return err
		}
		rc := make([]int, p)
		rd := make([]int, p)
		total := 0
		for s := 0; s < p; s++ {
			rc[s] = int(rcounts[s])
			rd[s] = s * slotBytes
			if rc[s] > slotBytes {
				return fmt.Errorf("is: receive slot overflow from %d: %d > %d", s, rc[s], slotBytes)
			}
			total += rc[s]
		}
		if total > recvCap {
			return fmt.Errorf("is: receive overflow: %d > %d", total, recvCap)
		}

		// The heavy exchange.
		if err := r.Alltoallv(sendVA, sc, sd, recvVA, rc, rd); err != nil {
			return err
		}

		// Local merge of p sorted runs + verification pass.
		mine = mine[:0]
		for s := 0; s < p; s++ {
			got := buf[:rc[s]]
			if err := r.ReadBytes(recvVA+vm.VA(rd[s]), got); err != nil {
				return err
			}
			for i := 0; i < rc[s]/4; i++ {
				mine = append(mine, binary.LittleEndian.Uint32(got[4*i:]))
			}
		}
		if len(mine) > len(scratch) {
			scratch = make([]uint32, len(mine))
		}
		radixSort(mine, scratch, k.MaxKey)
		charge(r, memmodel.SeqScan{Passes: 2}, region(r, recvVA, uint64(total+1)))
		// The rank/merge phase hops randomly across the full key space
		// image (comfortably beyond the 4 KiB TLB reach but inside the
		// hugepage reach, so this phase favours hugepages slightly —
		// the bucket structures above dominate the other way).
		charge(r, memmodel.Random{Count: 2500, Seed: uint64(it + 11)}, region(r, arenaVA, arenaBytes))

		// Verification 1: every key landed in this rank's range, and the
		// rank's own keys are in order.
		lo := uint32(r.ID() * keysPerBucket)
		hi := uint32((r.ID() + 1) * keysPerBucket)
		if r.ID() == p-1 {
			hi = uint32(k.MaxKey)
		}
		for i, key := range mine {
			if key < lo || key >= hi {
				return fmt.Errorf("is: VERIFICATION FAILED: key %d outside [%d,%d)", key, lo, hi)
			}
			if i > 0 && key < mine[i-1] {
				return fmt.Errorf("is: VERIFICATION FAILED: rank %d key %d at %d follows larger key %d",
					r.ID(), key, i, mine[i-1])
			}
		}
		// Verification 2: global boundary order — my smallest key is >=
		// my left neighbour's largest.
		if err := isCheckBoundaries(r, mine, it); err != nil {
			return err
		}
		// Verification 3: key conservation.
		totVA := countVA
		if err := r.WriteF64(totVA, []float64{float64(len(mine))}); err != nil {
			return err
		}
		if err := r.AllreduceF64(totVA, 1, mpi.Sum); err != nil {
			return err
		}
		var tot [1]float64
		if err := r.ReadF64(totVA, tot[:]); err != nil {
			return err
		}
		if int(tot[0]) != p*k.KeysPerRank {
			return fmt.Errorf("is: VERIFICATION FAILED: %d keys after exchange, want %d",
				int(tot[0]), p*k.KeysPerRank)
		}
	}
	return nil
}

// isExchangeCounts distributes each rank's per-destination byte counts so
// every rank knows what it will receive (the MPI_Alltoall on counts that
// precedes every MPI_Alltoallv in the real IS).
func isExchangeCounts(r *mpi.Rank, scratch vm.VA, myCounts []float64, it int) ([]float64, error) {
	p := r.Size()
	out := make([]float64, p)
	out[r.ID()] = myCounts[r.ID()]
	for step := 1; step < p; step++ {
		dst := (r.ID() + step) % p
		src := (r.ID() - step + p) % p
		if err := r.WriteF64(scratch, []float64{myCounts[dst]}); err != nil {
			return nil, err
		}
		tag := 900 + it*16 + step
		if _, err := r.Sendrecv(dst, tag, scratch, 8, src, tag, scratch+8, 8); err != nil {
			return nil, err
		}
		if err := r.ReadF64(scratch+8, out[src:src+1]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// isCheckBoundaries verifies global sortedness across rank boundaries.
func isCheckBoundaries(r *mpi.Rank, mine []uint32, it int) error {
	p := r.Size()
	scratch, err := r.Malloc(64)
	if err != nil {
		return err
	}
	defer func() { _ = r.Free(scratch) }()
	maxKey := float64(-1)
	if len(mine) > 0 {
		maxKey = float64(mine[len(mine)-1])
	}
	right := (r.ID() + 1) % p
	left := (r.ID() - 1 + p) % p
	if err := r.WriteF64(scratch, []float64{maxKey}); err != nil {
		return err
	}
	tag := 950 + it
	if _, err := r.Sendrecv(right, tag, scratch, 8, left, tag, scratch+8, 8); err != nil {
		return err
	}
	if r.ID() == 0 {
		return nil // wrapped boundary is not ordered
	}
	var leftMax [1]float64
	if err := r.ReadF64(scratch+8, leftMax[:]); err != nil {
		return err
	}
	if len(mine) > 0 && leftMax[0] >= 0 && float64(mine[0]) < leftMax[0] {
		return fmt.Errorf("is: VERIFICATION FAILED: rank %d min %d < left max %g",
			r.ID(), mine[0], leftMax[0])
	}
	return nil
}
