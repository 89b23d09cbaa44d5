package mpi

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/phys"
	"repro/internal/vm"
)

// Collective tag space, kept away from user tags.
const (
	tagBarrier   = 1 << 20
	tagAllreduce = 4 << 20
	tagAlltoallv = 5 << 20
)

// ReduceOp is an elementwise float64 reduction: Sum or Max (which keeps
// a > b ? a : b).
type ReduceOp = phys.ReduceOp

// Sum and Max are the reduce operations the NAS kernels need.
const (
	Sum = phys.Sum
	Max = phys.Max
)

// scratch returns a persistent internal buffer of at least n bytes,
// allocated through the rank's allocation library — the preloaded library
// intercepts the MPI library's own allocations too, so internal buffers
// follow the same placement policy as user memory.
func (r *Rank) scratch(n uint64) (vm.VA, error) {
	if r.scratchSize >= n {
		return r.scratchVA, nil
	}
	if r.scratchVA != 0 {
		if err := r.Free(r.scratchVA); err != nil {
			return 0, err
		}
	}
	if n < 64<<10 {
		n = 64 << 10
	}
	va, err := r.Malloc(n)
	if err != nil {
		return 0, err
	}
	r.scratchVA, r.scratchSize = va, n
	return va, nil
}

// Barrier blocks until all ranks arrive (dissemination algorithm).
func (r *Rank) Barrier() error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("Barrier", start, outer) }()
	p := r.Size()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		if _, err := r.Sendrecv(dst, tagBarrier+round, 0, 0, src, tagBarrier+round, 0, 0); err != nil {
			return fmt.Errorf("mpi: barrier round %d: %w", round, err)
		}
	}
	return nil
}

// AllreduceF64 reduces count float64s at va elementwise across all ranks
// with op, by recursive doubling; every rank ends with the result. Each
// round adds the received operand into va in place, frame to frame. The
// rank count must be a power of two, as in every experiment (NAS IS
// likewise needs a power-of-two MaxKey), and va must be 8-byte aligned,
// as Malloc memory is.
func (r *Rank) AllreduceF64(va vm.VA, count int, op ReduceOp) error {
	p := r.Size()
	if p&(p-1) != 0 {
		return fmt.Errorf("mpi: allreduce needs a power-of-two rank count, got %d ranks", p)
	}
	if va%8 != 0 {
		return fmt.Errorf("mpi: allreduce needs an 8-byte-aligned buffer, got va %#x", uint64(va))
	}
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("Allreduce", start, outer) }()
	if p == 1 {
		return nil
	}
	bytes := 8 * count
	tmp, err := r.scratch(uint64(bytes))
	if err != nil {
		return err
	}
	for mask, round := 1, 0; mask < p; mask, round = mask<<1, round+1 {
		peer := r.id ^ mask
		if _, err := r.Sendrecv(peer, tagAllreduce+round, va, bytes,
			peer, tagAllreduce+round, tmp, bytes); err != nil {
			return fmt.Errorf("mpi: allreduce round %d: %w", round, err)
		}
		if err := r.as.ReduceF64(va, tmp, bytes, op); err != nil {
			return err
		}
		// Reduction arithmetic streams 3 arrays through the cache.
		r.clock.Advance(r.memcpyTicks(3 * bytes))
	}
	return nil
}

// Alltoallv is the variable-count all-to-all (NAS IS key exchange): the
// sc[d] bytes at sendVA+sd[d] go to rank d, and the rc[s] bytes from rank
// s land at recvVA+rd[s].
func (r *Rank) Alltoallv(sendVA vm.VA, sc, sd []int, recvVA vm.VA, rc, rd []int) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("Alltoallv", start, outer) }()
	p := r.Size()
	if len(sc) != p || len(sd) != p || len(rc) != p || len(rd) != p {
		return fmt.Errorf("mpi: alltoallv: count/displ arrays must have %d entries", p)
	}
	cs := node.CollStats{Alltoallvs: 1}
	// Local block: a memcpy.
	if n := min(sc[r.id], rc[r.id]); n > 0 {
		if err := r.as.Copy(recvVA+vm.VA(rd[r.id]), sendVA+vm.VA(sd[r.id]), n); err != nil {
			return err
		}
		r.clock.Advance(r.memcpyTicks(n))
		cs.LocalCopyBytes += int64(n)
	}
	// Pairwise exchange: step k talks to (id+k) and (id-k).
	for k := 1; k < p; k++ {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		if _, err := r.Sendrecv(
			dst, tagAlltoallv+k, sendVA+vm.VA(sd[dst]), sc[dst],
			src, tagAlltoallv+k, recvVA+vm.VA(rd[src]), rc[src]); err != nil {
			return fmt.Errorf("mpi: alltoallv step %d: %w", k, err)
		}
		cs.PairwiseSteps++
		cs.BytesSent += int64(sc[dst])
		cs.BytesRecv += int64(rc[src])
	}
	r.node.AddColl(cs)
	return nil
}
