package mpi

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/hca"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/vm"
)

// ErrWRFailed reports a work request whose completion kept erroring past
// the repost limit — the injected-fault equivalent of a fatal IBV_WC
// status.
var ErrWRFailed = errors.New("mpi: work request failed after retries")

// Transient completion-error recovery: a failed completion is reposted
// with exponential backoff, all in virtual time, bounded so a hostile
// fault period cannot hang a rank.
const (
	wrRetryLimit  = 8
	wrBackoffBase = simtime.Ticks(400)
)

// pollCQ drains one completion, injecting transient completion errors
// from the rank's fault schedule. Each error costs a backoff
// (wrBackoffBase << attempt) plus a re-poll; recovery is deterministic
// because the injector decides per (stream, event index), never by wall
// clock or goroutine timing. A nil injector reduces to the plain
// PollCQ cost advance.
func (r *Rank) pollCQ(clk *simtime.Clock, stream faults.WRStream) error {
	clk.Advance(r.ctx.PollCQ(r.tctx(clk)))
	if !r.inj.WRError(stream) {
		return nil
	}
	for attempt := 0; ; attempt++ {
		if attempt == wrRetryLimit {
			return fmt.Errorf("mpi: rank %d: %w", r.id, ErrWRFailed)
		}
		r.inj.RecordWRRetry()
		backoff := wrBackoffBase << uint(attempt)
		if tc := r.tctx(clk); tc.Enabled() {
			tc.Span(trace.LMPI, "wr.retry", backoff, trace.I64("attempt", int64(attempt)))
		}
		clk.Advance(backoff)
		clk.Advance(r.ctx.PollCQ(r.tctx(clk)))
		if !r.inj.WRError(stream) {
			return nil
		}
	}
}

// message kinds.
const (
	kindEager = iota
	kindRTS
)

// message is one wire-level unit between two ranks. Eager messages carry
// their payload and come from the world's free list (see
// World.eagerMessage); the receiver hands each back once the payload is
// copied out. Rendezvous starts with an RTS carrying reply queues.
type message struct {
	kind int
	src  int
	tag  int

	// flow is the trace arrow id linking the send post to the receive
	// (0 when tracing is disabled).
	flow uint64

	// eager
	data   []byte
	arrive simtime.Ticks // arrival instant at the receiver's NIC

	// rendezvous
	size int
	cts  *sched.Queue[ctsMsg]
	fin  *sched.Queue[finMsg]
}

// ctsMsg is the receiver's clear-to-send: its adapter and the target
// rkey/address the RDMA write places the payload at, plus the receiver
// clock at which it was issued.
type ctsMsg struct {
	hw   *hca.HCA
	rkey uint32
	va   vm.VA
	t    simtime.Ticks
}

// finMsg announces the RDMA write: the payload is already in place (the
// sender's adapter wrote it at gather time), so it carries only the
// timing components the receiver needs to finish the pipeline model.
type finMsg struct {
	start     simtime.Ticks // sender clock when the RDMA WR was posted
	gather    simtime.Ticks // sender-side DMA gather cost
	serialize simtime.Ticks // wire serialisation cost
}

// eagerPipelineTicks is the fixed software overhead of the eager path
// (header build, channel progress) beyond copies and HCA costs.
const eagerPipelineTicks = simtime.Ticks(220)

// Send transmits n bytes starting at va to rank dst with a tag. Protocol
// selection follows MVAPICH2: eager/copy up to the RDMA limit, RDMA-write
// rendezvous above it.
func (r *Rank) Send(dst, tag int, va vm.VA, n int) error {
	start := r.clock.Now()
	outer := r.enterMPI()
	err := r.sendOn(r.task, &r.clock, dst, tag, va, n, nil, nil, nil)
	r.exitMPI("Send", start, outer)
	return err
}

// sendOn is Send against an explicit task and clock (Sendrecv runs its
// send half as a forked sub-task on a forked clock). The three gates
// order this half against a concurrent recv half on the rank's shared
// structures; they are nil for ungated plain sends:
//   - started opens once this half is past its registration point (or
//     will never register), releasing the recv half to start;
//   - dma opens once this half's DMA gather is done (or will never
//     happen), ordering it before the recv half's scatter on the shared
//     adapter;
//   - rel holds this half's cache release until the recv half has
//     finished with the cache (see Sendrecv).
func (r *Rank) sendOn(t *sched.Task, clk *simtime.Clock, dst, tag int, va vm.VA, n int, started, dma, rel *sched.Gate) error {
	defer started.Open() // never leave a gated recv half waiting
	defer dma.Open()
	if err := r.checkPeer(dst); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("mpi: negative send length %d", n)
	}
	if n > rdmaLimit {
		return r.sendRendezvous(t, clk, dst, tag, va, n, started, dma, rel)
	}
	started.Open() // eager path never touches the registration cache
	return r.sendEager(t, clk, dst, tag, va, n)
}

// sendEager copies the payload through the preregistered bounce path and
// returns as soon as the local work is done (true eager semantics).
func (r *Rank) sendEager(t *sched.Task, clk *simtime.Clock, dst, tag int, va vm.VA, n int) error {
	// Flow control: consume one eager buffer credit for this peer; if the
	// receiver has not drained its bounce buffers we block here, and our
	// clock advances to the instant the credit was freed.
	waitStart := clk.Now()
	freed, ok := r.creditQ(dst).Pop(t)
	if !ok {
		return fmt.Errorf("mpi: rank %d awaiting eager credit for %d: %w", r.id, dst, ErrAborted)
	}
	clk.AdvanceTo(freed)
	if tc := r.tctx(clk); tc.Enabled() && clk.Now() > waitStart {
		tc.SpanAt(trace.LMPI, "credit.wait", waitStart, clk.Now()-waitStart)
	}
	m := r.world.eagerMessage(n)
	if n > 0 {
		if err := r.as.Read(va, m.data); err != nil {
			return err
		}
	}
	// CPU copy into the registered bounce buffer, then post + doorbell.
	copyCost := r.memcpyTicks(n) + eagerPipelineTicks
	if tc := r.tctx(clk); tc.Enabled() {
		tc.Span(trace.LMPI, "eager.copy", copyCost, trace.I64("bytes", int64(n)))
	}
	clk.Advance(copyCost)
	clk.Advance(r.ctx.PostSend(r.tctx(clk), make([]hca.SGE, 1)))
	// The adapter gathers from the hot bounce buffer and serialises.
	arrive := clk.Now() + r.ctx.HW.WireCost(n)
	m.src, m.tag, m.arrive = r.id, tag, arrive
	if r.tr.Enabled() {
		m.flow = r.nextFlow(dst)
		r.tctx(clk).FlowBegin(m.flow)
	}
	// Local completion (inline/bounce: immediate).
	if err := r.pollCQ(clk, faults.StreamWRSend); err != nil {
		return err
	}
	if !r.world.ranks[dst].inboxQ(r.id).Push(t, m) {
		return fmt.Errorf("mpi: rank %d sending eager to %d: %w", r.id, dst, ErrAborted)
	}
	return nil
}

// sendRendezvous runs the registration + RDMA-write protocol.
func (r *Rank) sendRendezvous(t *sched.Task, clk *simtime.Clock, dst, tag int, va vm.VA, n int, started, dma, rel *sched.Gate) error {
	mr, cost, err := r.cache.AcquireT(r.tctx(clk), va, uint64(n))
	started.Open()
	if err != nil {
		return fmt.Errorf("mpi: rendezvous register: %w", err)
	}
	clk.Advance(cost)

	m := &message{
		kind: kindRTS, src: r.id, tag: tag, size: n,
		cts: sched.NewQueue[ctsMsg](r.world.sched, "cts", 1),
		fin: sched.NewQueue[finMsg](r.world.sched, "fin", 1),
	}
	clk.Advance(r.ctx.PostSend(r.tctx(clk), make([]hca.SGE, 1)))
	m.arrive = clk.Now() + r.ctrlWire()
	if r.tr.Enabled() {
		m.flow = r.nextFlow(dst)
		r.tctx(clk).FlowBegin(m.flow)
	}
	if !r.world.ranks[dst].inboxQ(r.id).Push(t, m) {
		return fmt.Errorf("mpi: rank %d sending RTS to %d: %w", r.id, dst, ErrAborted)
	}

	waitStart := clk.Now()
	cts, ok := m.cts.Pop(t)
	if !ok {
		return fmt.Errorf("mpi: rank %d awaiting CTS from %d: %w", r.id, dst, ErrAborted)
	}
	clk.AdvanceTo(cts.t + r.ctrlWire())
	if tc := r.tctx(clk); tc.Enabled() && clk.Now() > waitStart {
		tc.SpanAt(trace.LMPI, "cts.wait", waitStart, clk.Now()-waitStart)
	}
	// CTS completion.
	if err := r.pollCQ(clk, faults.StreamWRSend); err != nil {
		return err
	}

	// Post the RDMA write; the adapter gathers the user buffer while the
	// wire serialises — the two stages pipeline. The bytes land in the
	// receiver's buffer now, not at its scatter point: Send returns
	// before the peer scatters, and the caller may then reuse the
	// buffer. The gather is drawn on the adapter's TX track, where it
	// runs.
	var tcg trace.Ctx
	if r.tr.Enabled() {
		tcg = r.tr.At(trace.TrackHCATx, clk.Now())
	}
	gather, err := r.ctx.HW.RDMAWrite(tcg, []hca.SGE{{Addr: va, Length: uint32(n), LKey: mr.LKey}}, cts.hw, cts.rkey, cts.va)
	dma.Open() // gather done; the recv half may now drive the adapter
	if err != nil {
		return fmt.Errorf("mpi: rendezvous gather: %w", err)
	}
	clk.Advance(r.ctx.PostSend(r.tctx(clk), make([]hca.SGE, 1)))
	start := clk.Now()
	serialize := simtime.BandwidthTicks(int64(n), r.world.cfg.Machine.HCA.WireBandwidthMBs)
	m.fin.Push(t, finMsg{start: start, gather: gather, serialize: serialize})

	// Local completion: RC ack after remote placement of the last packet.
	wire := r.world.cfg.Machine.HCA.WireLatency
	clk.AdvanceTo(start + wire + simtime.Max(gather, serialize) + wire)
	if tc := r.tctx(clk); tc.Enabled() && clk.Now() > start {
		tc.SpanAt(trace.LMPI, "rdma.ack.wait", start, clk.Now()-start)
	}
	if err := r.pollCQ(clk, faults.StreamWRSend); err != nil {
		return err
	}

	rel.Wait(t) // the recv half finishes with the cache first
	relCost, err := r.cache.ReleaseT(r.tctx(clk), mr)
	if err != nil {
		return err
	}
	clk.Advance(relCost)
	return nil
}

// Recv receives up to cap bytes into va from rank src with a tag,
// returning the actual message size.
func (r *Rank) Recv(src, tag int, va vm.VA, capacity int) (int, error) {
	start := r.clock.Now()
	outer := r.enterMPI()
	n, err := r.recvOn(r.task, &r.clock, src, tag, va, capacity, nil, nil)
	r.exitMPI("Recv", start, outer)
	return n, err
}

// recvOn matches and completes one incoming message. It must run on the
// rank's main task (it owns the pending queues). rel is opened when
// this half is completely done with the registration cache, releasing a
// gated send half; opening happens on every exit path so an early error
// cannot strand the sender.
func (r *Rank) recvOn(t *sched.Task, clk *simtime.Clock, src, tag int, va vm.VA, capacity int, dma, rel *sched.Gate) (int, error) {
	defer rel.Open()
	if err := r.checkPeer(src); err != nil {
		return 0, err
	}
	waitStart := clk.Now()
	m := r.matchRecv(t, src, tag)
	if m == nil {
		return 0, fmt.Errorf("mpi: rank %d receiving from %d: %w", r.id, src, ErrAborted)
	}
	switch m.kind {
	case kindEager:
		n := len(m.data)
		if n > capacity {
			return 0, fmt.Errorf("mpi: eager truncation: got %d bytes, capacity %d", n, capacity)
		}
		clk.AdvanceTo(m.arrive)
		if tc := r.tctx(clk); tc.Enabled() {
			if clk.Now() > waitStart {
				tc.SpanAt(trace.LMPI, "recv.wait", waitStart, clk.Now()-waitStart)
			}
			if m.flow != 0 {
				tc.FlowEnd(m.flow)
			}
		}
		if err := r.pollCQ(clk, faults.StreamWRRecv); err != nil {
			return 0, err
		}
		if n > 0 {
			copyCost := r.memcpyTicks(n) + eagerPipelineTicks
			if tc := r.tctx(clk); tc.Enabled() {
				tc.Span(trace.LMPI, "eager.copy", copyCost, trace.I64("bytes", int64(n)))
			}
			clk.Advance(copyCost)
			if err := r.as.Write(va, m.data); err != nil {
				return 0, err
			}
		}
		// Return the eager buffer credit to the sender, stamped with the
		// time the bounce buffer became free again. A full pool (e.g.
		// duplicated teardown) drops the token.
		r.world.ranks[src].creditQ(r.id).TryPush(clk.Now())
		r.world.recycleEager(m)
		return n, nil

	case kindRTS:
		n := m.size
		if n > capacity {
			return 0, fmt.Errorf("mpi: rendezvous truncation: got %d bytes, capacity %d", n, capacity)
		}
		clk.AdvanceTo(m.arrive)
		if tc := r.tctx(clk); tc.Enabled() {
			if clk.Now() > waitStart {
				tc.SpanAt(trace.LMPI, "recv.wait", waitStart, clk.Now()-waitStart)
			}
			if m.flow != 0 {
				tc.FlowEnd(m.flow)
			}
		}
		// RTS completion.
		if err := r.pollCQ(clk, faults.StreamWRRecv); err != nil {
			return 0, err
		}
		mr, cost, err := r.cache.AcquireT(r.tctx(clk), va, uint64(n))
		if err != nil {
			return 0, fmt.Errorf("mpi: rendezvous recv register: %w", err)
		}
		clk.Advance(cost)
		clk.Advance(r.ctx.PostSend(r.tctx(clk), make([]hca.SGE, 1))) // CTS post
		m.cts.Push(t, ctsMsg{hw: r.ctx.HW, rkey: mr.RKey, va: va, t: clk.Now()})

		rdmaStart := clk.Now()
		fin, ok := m.fin.Pop(t)
		if !ok {
			return 0, fmt.Errorf("mpi: rank %d awaiting data from %d: %w", r.id, src, ErrAborted)
		}
		dma.Wait(t) // the send half's gather drives the adapter first
		var tcs trace.Ctx
		if r.tr.Enabled() {
			tcs = r.tr.At(trace.TrackHCARx, clk.Now())
		}
		scatter, err := r.ctx.HW.PlaceRDMA(tcs, mr.RKey, va, n)
		if err != nil {
			return 0, fmt.Errorf("mpi: rendezvous scatter: %w", err)
		}
		wire := r.world.cfg.Machine.HCA.WireLatency
		done := fin.start + wire + simtime.Max(simtime.Max(fin.gather, fin.serialize), scatter)
		clk.AdvanceTo(done)
		if tc := r.tctx(clk); tc.Enabled() && clk.Now() > rdmaStart {
			tc.SpanAt(trace.LMPI, "rdma.wait", rdmaStart, clk.Now()-rdmaStart)
		}
		// FIN completion.
		if err := r.pollCQ(clk, faults.StreamWRRecv); err != nil {
			return 0, err
		}
		relCost, err := r.cache.ReleaseT(r.tctx(clk), mr)
		if err != nil {
			return 0, err
		}
		clk.Advance(relCost)
		return n, nil
	}
	return 0, fmt.Errorf("mpi: unknown message kind %d", m.kind)
}

// Sendrecv performs the simultaneous send+receive used by IMB SendRecv
// and the NAS exchange patterns. The send half runs as a forked
// scheduler task so two ranks may Sendrecv each other without deadlock,
// exactly as in MPI.
//
// Three gates pin down the intra-rank ordering the old goroutine-pair
// design enforced with its ad-hoc sendGate web, now reduced to scheduler
// primitives with one invariant each:
//   - started: the send half reaches its registration point (or its
//     eager dispatch) before the recv half starts, so which half pays a
//     shared-cache miss is a function of the protocol, not of timing;
//   - dma: the send half's DMA gather hits the adapter's translation
//     cache before the recv half's scatter, matching the virtual-time
//     schedule where the outgoing RDMA is posted before the incoming
//     FIN is processed;
//   - rel: the send half releases its registration only after the recv
//     half is completely done with the cache (reference counts, zombie
//     teardown and its ATT shoot-down are order-sensitive), mirroring
//     virtual time, where the sender still waits out the RC ack.
//
// As in MPI, the send and receive buffers must be disjoint: incoming
// rendezvous bytes are placed when the peer's adapter gathers them,
// which may be before this rank's own send half has read its buffer.
func (r *Rank) Sendrecv(dst, sendTag int, sendVA vm.VA, sendN int,
	src, recvTag int, recvVA vm.VA, recvCap int) (int, error) {
	if sendN > 0 && recvCap > 0 &&
		sendVA < recvVA+vm.VA(recvCap) && recvVA < sendVA+vm.VA(sendN) {
		return 0, fmt.Errorf("mpi: rank %d: Sendrecv send buffer [%#x,+%d) overlaps receive buffer [%#x,+%d)",
			r.id, uint64(sendVA), sendN, uint64(recvVA), recvCap)
	}
	start := r.clock.Now()
	outer := r.enterMPI()
	var n int
	var sendErr, recvErr error
	if r.canInlineSend(dst, sendN) {
		// Fast path: an eager send with a credit in hand and inbox room
		// cannot block, so running it inline to completion is exactly the
		// schedule the forked task would produce — minus the task.
		var sendClk simtime.Clock
		sendClk.AdvanceTo(start)
		sendErr = r.sendOn(r.task, &sendClk, dst, sendTag, sendVA, sendN, nil, nil, nil)
		n, recvErr = r.recvOn(r.task, &r.clock, src, recvTag, recvVA, recvCap, nil, nil)
		r.clock.AdvanceTo(sendClk.Now())
	} else {
		h := r.forkHalf(dst, sendTag, sendVA, sendN)
		h.clk.AdvanceTo(start)
		sub := r.world.sched.Spawn(r.id, &h.clk, h.fn)
		h.started.Wait(r.task)
		n, recvErr = r.recvOn(r.task, &r.clock, src, recvTag, recvVA, recvCap, &h.dma, &h.rel)
		if recvErr != nil {
			// The peer's send half may be parked on a CTS this half now
			// never gives while our own send half waits on the peer's:
			// abort the job, as MPI_Abort would, so both unwind.
			r.world.sched.Abort()
		}
		r.task.Join(sub)
		r.clock.AdvanceTo(h.clk.Now())
		sendErr = h.err
	}
	r.exitMPI("Sendrecv", start, outer)
	// Report the root cause: a send half cut off by the abort above
	// yields to the receive error that caused it.
	if sendErr != nil && (recvErr == nil || !errors.Is(sendErr, ErrAborted)) {
		return n, sendErr
	}
	return n, recvErr
}

// sendHalf is a Sendrecv send half forked onto its own task: its
// arguments, its clock, its result and the three gates that order it
// against the recv half. A rank has at most one fork in flight, so it
// keeps one sendHalf and reuses it for every fork.
type sendHalf struct {
	r                 *Rank
	dst, tag, n       int
	va                vm.VA
	clk               simtime.Clock
	err               error
	started, dma, rel sched.Gate
	fn                func(*sched.Task) error // run, bound once
}

// forkHalf returns the rank's sendHalf reset for a new fork, allocating
// it on the rank's first fork.
func (r *Rank) forkHalf(dst, tag int, va vm.VA, n int) *sendHalf {
	h := r.half
	if h == nil {
		h = new(sendHalf)
		h.fn = h.run
		r.half = h
	}
	*h = sendHalf{r: r, dst: dst, tag: tag, va: va, n: n, fn: h.fn}
	return h
}

func (h *sendHalf) run(t *sched.Task) error {
	h.err = h.r.sendOn(t, &h.clk, h.dst, h.tag, h.va, h.n, &h.started, &h.dma, &h.rel)
	// A send-half failure is Sendrecv's to report, not a reason to
	// abort the world before the recv half has resolved.
	return nil
}

// canInlineSend reports whether a Sendrecv's send half can run inline on
// the main task without ever parking: a valid eager-path send with an
// eager credit available and room in the peer's inbox. Anything else —
// rendezvous (always waits for CTS), an exhausted credit pool, a full
// inbox — needs the forked sub-task.
func (r *Rank) canInlineSend(dst, n int) bool {
	if dst < 0 || dst >= len(r.world.ranks) || dst == r.id {
		return false
	}
	if n < 0 || n > rdmaLimit {
		return false
	}
	return r.creditQ(dst).Len() > 0 && r.world.ranks[dst].inboxQ(r.id).Free() > 0
}
