package mpi

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/vm"
)

// Collective tag space, kept away from user tags.
const (
	tagBarrier   = 1 << 20
	tagBcast     = 2 << 20
	tagReduce    = 3 << 20
	tagAllreduce = 4 << 20
	tagAlltoall  = 5 << 20
)

// ReduceOp combines two float64 values (Sum, Max, ...).
type ReduceOp func(a, b float64) float64

// Sum and Max are the reduce operations the NAS kernels need.
var (
	Sum ReduceOp = func(a, b float64) float64 { return a + b }
	Max ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
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

// Bcast broadcasts n bytes at va from root to all ranks (binomial tree).
func (r *Rank) Bcast(root int, va vm.VA, n int) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("Bcast", start, outer) }()
	p := r.Size()
	if p == 1 {
		return nil
	}
	// Rotate so the root is virtual rank 0.
	vrank := (r.id - root + p) % p
	// Receive from parent.
	mask := 1
	for ; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank - mask) + root) % p
			if _, err := r.Recv(parent, tagBcast+mask, va, n); err != nil {
				return fmt.Errorf("mpi: bcast recv: %w", err)
			}
			break
		}
	}
	// Forward to children below the received bit.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			child := (vrank + mask + root) % p
			if err := r.Send(child, tagBcast+mask, va, n); err != nil {
				return fmt.Errorf("mpi: bcast send: %w", err)
			}
		}
	}
	return nil
}

// AllreduceF64 reduces count float64s at va elementwise across all ranks
// with op; every rank ends with the result. Power-of-two rank counts use
// recursive doubling; others reduce to rank 0 then broadcast.
func (r *Rank) AllreduceF64(va vm.VA, count int, op ReduceOp) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("Allreduce", start, outer) }()
	p := r.Size()
	if p == 1 {
		return nil
	}
	bytes := 8 * count
	if p&(p-1) == 0 {
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
			if err := r.combineF64(va, tmp, count, op); err != nil {
				return err
			}
		}
		return nil
	}
	if err := r.reduceTreeF64(va, count, op); err != nil {
		return err
	}
	return r.Bcast(0, va, bytes)
}

// reduceTreeF64 reduces to rank 0 over a binomial tree.
func (r *Rank) reduceTreeF64(va vm.VA, count int, op ReduceOp) error {
	p := r.Size()
	if p == 1 {
		return nil
	}
	bytes := 8 * count
	tmp, err := r.scratch(uint64(bytes))
	if err != nil {
		return err
	}
	mask := 1
	for mask < p {
		if r.id&mask != 0 {
			parent := r.id &^ mask
			if err := r.Send(parent, tagReduce+mask, va, bytes); err != nil {
				return fmt.Errorf("mpi: reduce send: %w", err)
			}
			return nil
		}
		if child := r.id | mask; child < p {
			if _, err := r.Recv(child, tagReduce+mask, tmp, bytes); err != nil {
				return fmt.Errorf("mpi: reduce recv: %w", err)
			}
			if err := r.combineF64(va, tmp, count, op); err != nil {
				return err
			}
		}
		mask <<= 1
	}
	return nil
}

// combineF64 applies va[i] = op(va[i], tmp[i]) including the CPU cost of
// streaming both arrays. The operands are decoded into the rank's host
// scratch, grown to the largest count it has reduced.
func (r *Rank) combineF64(va, tmp vm.VA, count int, op ReduceOp) error {
	if cap(r.combineA) < count {
		r.combineA, r.combineB = make([]float64, count), make([]float64, count)
	}
	a, b := r.combineA[:count], r.combineB[:count]
	if err := r.ReadF64(va, a); err != nil {
		return err
	}
	if err := r.ReadF64(tmp, b); err != nil {
		return err
	}
	for i := range a {
		a[i] = op(a[i], b[i])
	}
	if err := r.WriteF64(va, a); err != nil {
		return err
	}
	// Reduction arithmetic streams 3 arrays through the cache.
	r.clock.Advance(r.memcpyTicks(3 * 8 * count))
	return nil
}

// Alltoall exchanges fixed-size blocks: block i of the send buffer goes
// to rank i; block j of the receive buffer comes from rank j.
func (r *Rank) Alltoall(sendVA, recvVA vm.VA, block int) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("Alltoall", start, outer) }()
	p := r.Size()
	counts := make([]int, p)
	sd := make([]int, p)
	rd := make([]int, p)
	for i := 0; i < p; i++ {
		counts[i] = block
		sd[i] = i * block
		rd[i] = i * block
	}
	if err := r.alltoallv(sendVA, counts, sd, recvVA, counts, rd); err != nil {
		return err
	}
	r.node.AddColl(node.CollStats{Alltoalls: 1})
	return nil
}

// Alltoallv is the variable-count variant (NAS IS key exchange).
func (r *Rank) Alltoallv(sendVA vm.VA, sendCounts, sendDispls []int,
	recvVA vm.VA, recvCounts, recvDispls []int) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("Alltoallv", start, outer) }()
	if err := r.alltoallv(sendVA, sendCounts, sendDispls, recvVA, recvCounts, recvDispls); err != nil {
		return err
	}
	r.node.AddColl(node.CollStats{Alltoallvs: 1})
	return nil
}

func (r *Rank) alltoallv(sendVA vm.VA, sc, sd []int, recvVA vm.VA, rc, rd []int) error {
	p := r.Size()
	if len(sc) != p || len(sd) != p || len(rc) != p || len(rd) != p {
		return fmt.Errorf("mpi: alltoallv: count/displ arrays must have %d entries", p)
	}
	var cs node.CollStats
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
			dst, tagAlltoall+k, sendVA+vm.VA(sd[dst]), sc[dst],
			src, tagAlltoall+k, recvVA+vm.VA(rd[src]), rc[src]); err != nil {
			return fmt.Errorf("mpi: alltoallv step %d: %w", k, err)
		}
		cs.PairwiseSteps++
		cs.BytesSent += int64(sc[dst])
		cs.BytesRecv += int64(rc[src])
	}
	r.node.AddColl(cs)
	return nil
}
