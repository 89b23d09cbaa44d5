package mpi

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/vm"
)

// tagAlltoallvP is the tag space of the pieces variant (collectives2.go
// owns 6–9 << 20).
const tagAlltoallvP = 10 << 20

// AlltoallvPieces is the non-contiguous Alltoallv the MoE dispatch path
// needs: pieces[d] lists the scattered pieces destined for rank d, and
// the receive side is the usual contiguous (recvVA, recvCounts,
// recvDispls) layout — rank d's data lands at recvVA+recvDispls[d].
// Every rank must pass consistent counts (sum of pieces[d] lengths on
// the sender == recvCounts[sender] on the receiver).
//
// The schedule is the same deterministic pairwise exchange as
// Alltoallv: step k sends to (id+k) and receives from (id-k). Per
// destination, the Section 4 SGE-versus-pack choice routes through the
// policy engine exactly like SendPieces: the gather branch posts one
// work request whose SGE list references every piece in place and the
// message travels as a single eager push (SendGathered never waits for
// the receiver, so the ring cannot deadlock); the pack branch stages
// the pieces into the collective scratch buffer and moves it with
// Sendrecv, whose forked send half keeps the rendezvous handshakes of
// a whole step in flight concurrently.
func (r *Rank) AlltoallvPieces(pieces [][]Piece, recvVA vm.VA, recvCounts, recvDispls []int) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("AlltoallvPieces", start, outer) }()
	p := r.Size()
	if len(pieces) != p || len(recvCounts) != p || len(recvDispls) != p {
		return fmt.Errorf("mpi: alltoallv-pieces: piece/count/displ arrays must have %d entries", p)
	}
	var cs node.CollStats
	cs.Alltoallvs = 1
	// Local pieces: CPU copies into the receive layout.
	if own := pieces[r.id]; len(own) > 0 {
		off := 0
		for _, pc := range own {
			if err := r.as.Copy(recvVA+vm.VA(recvDispls[r.id]+off), pc.VA, pc.Len); err != nil {
				return err
			}
			r.clock.Advance(r.memcpyTicks(pc.Len))
			off += pc.Len
		}
		if off > recvCounts[r.id] {
			return fmt.Errorf("mpi: alltoallv-pieces: local pieces %d B exceed recv count %d", off, recvCounts[r.id])
		}
		cs.LocalCopyBytes += int64(off)
	}
	for k := 1; k < p; k++ {
		dst := (r.id + k) % p
		src := (r.id - k + p) % p
		tag := tagAlltoallvP + k
		send := pieces[dst]
		total := totalPieces(send)
		switch {
		case len(send) == 0:
			// Nothing outbound: a zero-byte Sendrecv keeps the step's
			// send/receive matching intact.
			if _, err := r.Sendrecv(dst, tag, 0, 0,
				src, tag, recvVA+vm.VA(recvDispls[src]), recvCounts[src]); err != nil {
				return fmt.Errorf("mpi: alltoallv-pieces step %d: %w", k, err)
			}
		default:
			if r.preferGather(send, total) {
				if err := r.SendGathered(dst, tag, send); err != nil {
					return fmt.Errorf("mpi: alltoallv-pieces step %d: %w", k, err)
				}
				if _, err := r.Recv(src, tag, recvVA+vm.VA(recvDispls[src]), recvCounts[src]); err != nil {
					return fmt.Errorf("mpi: alltoallv-pieces step %d: %w", k, err)
				}
				break
			}
			// Pack: stage the pieces contiguously, then one Sendrecv.
			// Sendrecv completes before returning, so the scratch buffer
			// is free again when the next step stages into it.
			stage, err := r.scratch(uint64(total))
			if err != nil {
				return err
			}
			off := 0
			for _, pc := range send {
				if err := r.as.Copy(stage+vm.VA(off), pc.VA, pc.Len); err != nil {
					return err
				}
				r.clock.Advance(r.memcpyTicks(pc.Len))
				off += pc.Len
			}
			if _, err := r.Sendrecv(dst, tag, stage, total,
				src, tag, recvVA+vm.VA(recvDispls[src]), recvCounts[src]); err != nil {
				return fmt.Errorf("mpi: alltoallv-pieces step %d: %w", k, err)
			}
		}
		cs.PairwiseSteps++
		cs.BytesSent += int64(total)
		cs.BytesRecv += int64(recvCounts[src])
	}
	r.node.AddColl(cs)
	return nil
}
