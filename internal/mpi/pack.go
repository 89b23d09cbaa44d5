package mpi

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/hca"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// Piece is one element of a non-contiguous buffer (Section 4: "sending
// multiple buffers with only one work request").
type Piece struct {
	VA  vm.VA
	Len int
}

func totalPieces(ps []Piece) int {
	n := 0
	for _, p := range ps {
		n += p.Len
	}
	return n
}

// SendPacked transmits a non-contiguous buffer the classic way: MPI_Pack
// copies every piece into a contiguous staging buffer, then one ordinary
// send moves it. This is the baseline the SGE path is compared against.
func (r *Rank) SendPacked(dst, tag int, pieces []Piece) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("SendPacked", start, outer) }()
	total := totalPieces(pieces)
	stage, err := r.scratch(uint64(total))
	if err != nil {
		return err
	}
	// MPI_Pack: one CPU copy per piece.
	off := 0
	for _, p := range pieces {
		if err := r.as.Copy(stage+vm.VA(off), p.VA, p.Len); err != nil {
			return err
		}
		r.clock.Advance(r.memcpyTicks(p.Len))
		off += p.Len
	}
	return r.sendOn(r.task, &r.clock, dst, tag, stage, total, nil, nil, nil)
}

// SendGathered transmits a non-contiguous buffer the way Section 4
// proposes: one work request whose scatter/gather list references every
// piece in place. The consumer posts a single WR, the adapter fetches the
// pieces without CPU copies, and one completion is polled.
func (r *Rank) SendGathered(dst, tag int, pieces []Piece) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("SendGathered", start, outer) }()
	if len(pieces) == 0 {
		return fmt.Errorf("mpi: empty gather list")
	}
	// Register the span covering all pieces (they come from one user
	// buffer region in practice); one MR covers every SGE.
	lo, hi := pieces[0].VA, pieces[0].VA+vm.VA(pieces[0].Len)
	for _, p := range pieces[1:] {
		if p.VA < lo {
			lo = p.VA
		}
		if end := p.VA + vm.VA(p.Len); end > hi {
			hi = end
		}
	}
	mr, cost, err := r.cache.AcquireT(r.tctx(&r.clock), lo, uint64(hi-lo))
	if err != nil {
		return fmt.Errorf("mpi: gather register: %w", err)
	}
	r.clock.Advance(cost)

	sges := make([]hca.SGE, len(pieces))
	for i, p := range pieces {
		sges[i] = hca.SGE{Addr: p.VA, Length: uint32(p.Len), LKey: mr.LKey}
	}
	// One post, covering all SGEs (the sub-linear Figure 3 cost). The
	// adapter gathers straight into a pooled message, which the receiver
	// recycles once it has scattered the payload.
	r.clock.Advance(r.ctx.PostSend(r.tctx(&r.clock), sges))
	m := r.world.eagerMessage(hca.TotalLen(sges))
	gather, err := r.ctx.HW.GatherInto(m.data, sges)
	if err != nil {
		r.world.recycleEager(m)
		return fmt.Errorf("mpi: gather DMA: %w", err)
	}
	m.src, m.tag = r.id, tag
	m.arrive = r.clock.Now() + gather + r.ctx.HW.WireCost(len(m.data))
	if err := r.pollCQ(&r.clock, faults.StreamWRSend); err != nil {
		r.world.recycleEager(m)
		return err
	}
	if !r.world.ranks[dst].inboxQ(r.id).Push(r.task, m) {
		return fmt.Errorf("mpi: rank %d sending gathered to %d: %w", r.id, dst, ErrAborted)
	}
	if relCost, err := r.cache.ReleaseT(r.tctx(&r.clock), mr); err != nil {
		return err
	} else {
		r.clock.Advance(relCost)
	}
	return nil
}

// RecvUnpack receives a message sent by SendPacked or SendGathered and
// scatters it into the given pieces (MPI_Unpack).
func (r *Rank) RecvUnpack(src, tag int, pieces []Piece) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	defer func() { r.exitMPI("RecvUnpack", start, outer) }()
	total := totalPieces(pieces)
	stage, err := r.scratch(uint64(total))
	if err != nil {
		return err
	}
	n, err := r.recvOn(r.task, &r.clock, src, tag, stage, total, nil, nil)
	if err != nil {
		return err
	}
	if n != total {
		return fmt.Errorf("mpi: unpack size mismatch: got %d, want %d", n, total)
	}
	off := 0
	for _, p := range pieces {
		if err := r.as.Copy(p.VA, stage+vm.VA(off), p.Len); err != nil {
			return err
		}
		r.clock.Advance(r.memcpyTicks(p.Len))
		off += p.Len
	}
	return nil
}

// SendPieces transmits a non-contiguous buffer, choosing between the
// single-WR gather list (SendGathered) and pack-and-copy (SendPacked)
// through preferGather.
func (r *Rank) SendPieces(dst, tag int, pieces []Piece) error {
	if len(pieces) == 0 {
		return fmt.Errorf("mpi: empty piece list")
	}
	if r.preferGather(pieces, totalPieces(pieces)) {
		return r.SendGathered(dst, tag, pieces)
	}
	return r.SendPacked(dst, tag, pieces)
}

// preferGather is the runtime's one pack-vs-gather decision for a
// non-empty piece list of total bytes. The send-side cost estimates —
// len(pieces) SGEs versus one copy of the whole payload plus a
// single-SGE post — go through the node's policy engine (DecideGather),
// which may overrule them on live ATT pressure; without an engine the
// raw estimates decide.
func (r *Rank) preferGather(pieces []Piece, total int) bool {
	estGather := r.gatherCost(len(pieces))
	estPack := r.memcpyTicks(total) + r.gatherCost(1)
	return r.node.Policy().DecideGather(len(pieces), uint64(total), estGather, estPack)
}

// gatherCost is the modelled post+gather cost of an n-piece send.
func (r *Rank) gatherCost(pieces int) simtime.Ticks {
	return r.ctx.HW.PostPrice(pieces) + simtime.Ticks(pieces)*r.world.cfg.Machine.Bus.TxnTicks/2
}
