package hca

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
)

// Queue-pair and completion-queue objects: the stateful face of the
// adapter. The cost engine (PostCost/Gather/Scatter) stays separate; QPs
// add the resource limits and state machine real verbs consumers hit —
// bounded work queues, completion queues that overflow when not polled,
// and the reliable-connection handshake.

// QP errors.
var (
	ErrQPState    = errors.New("hca: queue pair in wrong state")
	ErrSQFull     = errors.New("hca: send queue full")
	ErrRQEmpty    = errors.New("hca: no receive WQE posted")
	ErrRQFull     = errors.New("hca: receive queue full")
	ErrCQOverflow = errors.New("hca: completion queue overrun")
)

// QPState is the verbs QP state machine, reduced to the states the
// simulator distinguishes.
type QPState int

// QP states.
const (
	QPReset QPState = iota
	QPInit
	QPReadyToReceive
	QPReadyToSend
	QPError
)

func (s QPState) String() string {
	switch s {
	case QPReset:
		return "RESET"
	case QPInit:
		return "INIT"
	case QPReadyToReceive:
		return "RTR"
	case QPReadyToSend:
		return "RTS"
	default:
		return "ERROR"
	}
}

// CQE is one completion entry.
type CQE struct {
	QPNum  uint32
	WRID   uint64
	Bytes  int
	IsRecv bool
	Time   simtime.Ticks
	SolErr error // non-nil for completion-with-error
}

// CQ is a bounded completion queue. Completions beyond the capacity
// transition the CQ into overrun: a real adapter raises a fatal async
// event, which the simulator reports as ErrCQOverflow on the next poll.
type CQ struct {
	depth   int
	entries []CQE
	overrun bool
	armed   int64 // pushes seen (diagnostics)
}

// NewCQ creates a completion queue with the given depth.
func NewCQ(depth int) *CQ {
	if depth < 1 {
		depth = 1
	}
	return &CQ{depth: depth}
}

// push appends a completion, tracking overrun.
func (cq *CQ) push(e CQE) {
	cq.armed++
	if len(cq.entries) >= cq.depth {
		cq.overrun = true
		return
	}
	cq.entries = append(cq.entries, e)
}

// Poll removes and returns the oldest completion. ok is false when the
// queue is empty. A previously overrun CQ returns ErrCQOverflow forever —
// completions were lost, the consumer cannot recover them.
func (cq *CQ) Poll() (CQE, bool, error) {
	if cq.overrun {
		return CQE{}, false, ErrCQOverflow
	}
	if len(cq.entries) == 0 {
		return CQE{}, false, nil
	}
	e := cq.entries[0]
	cq.entries = cq.entries[1:]
	return e, true, nil
}

// recvWQE is one posted receive.
type recvWQE struct {
	wrid uint64
	sges []SGE
}

// QP is one queue pair on an adapter.
type QP struct {
	Num uint32

	hca *HCA

	state   QPState
	peer    *QP // RC destination after Connect
	sqDepth int
	rqDepth int
	sqInUse int
	rq      []recvWQE

	SendCQ *CQ
	RecvCQ *CQ
}

// CreateQP allocates a queue pair on the adapter with bounded queues.
func (h *HCA) CreateQP(sendCQ, recvCQ *CQ, sqDepth, rqDepth int) (*QP, error) {
	if sendCQ == nil || recvCQ == nil {
		return nil, errors.New("hca: QP needs completion queues")
	}
	if sqDepth < 1 || rqDepth < 1 {
		return nil, errors.New("hca: queue depths must be positive")
	}
	num := h.nextQPNum
	h.nextQPNum++
	return &QP{
		Num: num, hca: h, state: QPInit,
		sqDepth: sqDepth, rqDepth: rqDepth,
		SendCQ: sendCQ, RecvCQ: recvCQ,
	}, nil
}

// Connect moves both QPs through RTR/RTS against each other (the RC
// connection handshake, collapsed).
func Connect(a, b *QP) error {
	if a.state != QPInit || b.state != QPInit {
		return fmt.Errorf("%w: %s/%s (want INIT/INIT)", ErrQPState, a.state, b.state)
	}
	a.peer, b.peer = b, a
	a.state, b.state = QPReadyToSend, QPReadyToSend
	return nil
}

// PostRecv posts a receive WQE. Fails with ErrRQFull beyond the depth.
func (qp *QP) PostRecv(wrid uint64, sges []SGE) (simtime.Ticks, error) {
	if qp.state == QPError || qp.state == QPReset {
		return 0, fmt.Errorf("%w: %s", ErrQPState, qp.state)
	}
	if len(qp.rq) >= qp.rqDepth {
		return 0, ErrRQFull
	}
	qp.rq = append(qp.rq, recvWQE{wrid: wrid, sges: sges})
	return qp.hca.PostCost(len(sges)), nil
}

// SendResult carries the timing decomposition of one executed send.
type SendResult struct {
	Post    simtime.Ticks // consumer-side posting cost
	Gather  simtime.Ticks // local DMA gather
	Wire    simtime.Ticks // link traversal
	Scatter simtime.Ticks // remote DMA scatter
	Bytes   int
}

// Complete is the end-to-end duration after posting.
func (s SendResult) Complete() simtime.Ticks { return s.Gather + s.Wire + s.Scatter }

// Send executes one RC send work request synchronously: gathers locally,
// crosses the wire, consumes the peer's oldest receive WQE, scatters into
// it, and pushes completions into both CQs stamped at `now` plus the
// pipeline delay. Errors transition the QP to the error state, as RC
// semantics demand.
func (qp *QP) Send(now simtime.Ticks, wrid uint64, sges []SGE) (SendResult, error) {
	if qp.state != QPReadyToSend {
		return SendResult{}, fmt.Errorf("%w: %s", ErrQPState, qp.state)
	}
	if qp.sqInUse >= qp.sqDepth {
		return SendResult{}, ErrSQFull
	}
	qp.sqInUse++
	peer := qp.peer
	res := SendResult{Post: qp.hca.PostCost(len(sges))}
	fail := func(err error) (SendResult, error) {
		qp.state = QPError
		qp.sqInUse--
		qp.SendCQ.push(CQE{QPNum: qp.Num, WRID: wrid, Time: now, SolErr: err})
		return SendResult{}, err
	}

	data, gather, err := qp.hca.Gather(sges)
	if err != nil {
		return fail(err)
	}
	res.Gather = gather
	res.Bytes = len(data)
	res.Wire = qp.hca.WireCost(len(data))

	// Consume the peer's receive WQE.
	if len(peer.rq) == 0 {
		// Receiver-not-ready: RC retries exhaust and both sides error.
		return fail(ErrRQEmpty)
	}
	wqe := peer.rq[0]
	peer.rq = peer.rq[1:]

	scatter, err := peer.hca.Scatter(wqe.sges, data)
	if err != nil {
		return fail(err)
	}
	res.Scatter = scatter

	done := now + res.Post + res.Complete()
	peer.RecvCQ.push(CQE{QPNum: peer.Num, WRID: wqe.wrid, Bytes: len(data), IsRecv: true, Time: done})
	qp.SendCQ.push(CQE{QPNum: qp.Num, WRID: wrid, Bytes: len(data), Time: done + qp.hca.Machine().HCA.WireLatency})

	qp.sqInUse--
	return res, nil
}
