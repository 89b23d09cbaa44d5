// Package wrbench reimplements the paper's Section 4 test case: "measures
// the duration of send and receive operations over OpenIB between two
// dedicated systems in terms of reliable connection", parameterised by
//
//   - offset — the start address of each data buffer in a memory page,
//   - sge_size — the size of a data piece in one scatter-gather element,
//   - sges — the number of SGEs per send/receive operation,
//
// "For each combination of those parameters this test case measures the
// elapsed time in time base register (TBR) ticks for post and poll
// operations separately. The post operation covers step 1, while the poll
// operation measures steps 2-4." Figures 3 and 4 are sweeps over this
// test case on the IBM System p / eHCA system.
package wrbench

import (
	"fmt"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/verbs"
	"repro/internal/vm"
)

// Result is one measured parameter combination.
type Result struct {
	SGEs    int
	SGESize int
	Offset  int
	// PostTicks covers step 1 (the consumer posts the work request).
	PostTicks simtime.Ticks
	// PollTicks covers steps 2-4 (transfer, completion generation,
	// completion polling).
	PollTicks simtime.Ticks
}

// Total is the full work-request duration.
func (r Result) Total() simtime.Ticks { return r.PostTicks + r.PollTicks }

// rig is a pair of connected systems with an RC queue pair between them.
type rig struct {
	send, recv *verbs.Context
	sendBuf    vm.VA
	recvBuf    vm.VA
	sendMR     *verbs.MR
	recvMR     *verbs.MR
	span       uint64
	sendQP     *hca.QP
	recvQP     *hca.QP
	// tr is the sender-side timeline (nil when untraced); now is the
	// rig's running virtual position — the rig has no MPI clock, so
	// measured durations are strung end to end along one timeline.
	tr  *trace.Tracer
	now simtime.Ticks
}

// newRig builds sender and receiver from cfg with registered buffers
// laid out so that SGE i starts at (i*PageSize + offset): each data
// piece sits at the chosen offset within its own memory page, as in the
// paper's test. A fault spec in cfg arms both hosts, salted by side, so
// a sweep under pressure replays bit-identically.
func newRig(cfg node.Config, maxSGEs int) (*rig, error) {
	span := uint64(maxSGEs+1) * machine.SmallPageSize * 2
	rg := &rig{span: span}
	names := []string{"wr/sender", "wr/receiver"}
	mk := func(salt uint64) (*verbs.Context, vm.VA, *verbs.MR, error) {
		// The Section 4 rig's hosts are less aged than a long-running MPI
		// node; half the default scramble depth matches the seed setup.
		host := cfg
		host.ScrambleDepth = node.DefaultScramble / 2
		host.FaultSalt = salt
		host.TraceName = names[salt]
		n, err := node.New(host)
		if err != nil {
			return nil, 0, nil, err
		}
		if salt == 0 {
			rg.tr = n.Tracer()
		}
		ctx := n.Verbs
		va, err := n.AS.MapSmall(span)
		if err != nil {
			return nil, 0, nil, err
		}
		mr, _, err := ctx.RegMR(va, span)
		if err != nil {
			return nil, 0, nil, err
		}
		return ctx, va, mr, nil
	}
	sctx, sva, smr, err := mk(0)
	if err != nil {
		return nil, err
	}
	rctx, rva, rmr, err := mk(1)
	if err != nil {
		return nil, err
	}
	rg.send, rg.recv = sctx, rctx
	rg.sendBuf, rg.recvBuf = sva, rva
	rg.sendMR, rg.recvMR = smr, rmr
	// A reliable connection between the two systems, with generous queue
	// depths (the sweep reuses one connection for every combination).
	rg.sendQP, err = sctx.HW.CreateQP(hca.NewCQ(1024), hca.NewCQ(1024), 256, 256)
	if err != nil {
		return nil, err
	}
	rg.recvQP, err = rctx.HW.CreateQP(hca.NewCQ(1024), hca.NewCQ(1024), 256, 256)
	if err != nil {
		return nil, err
	}
	if err := hca.Connect(rg.sendQP, rg.recvQP); err != nil {
		return nil, err
	}
	return rg, nil
}

// drainCQs empties both sides' completion queues between measurements.
func drainCQs(rg *rig) {
	for _, cq := range []*hca.CQ{rg.sendQP.SendCQ, rg.sendQP.RecvCQ, rg.recvQP.SendCQ, rg.recvQP.RecvCQ} {
		for {
			if _, ok, err := cq.Poll(); !ok || err != nil {
				break
			}
		}
	}
}

// sgeList builds the gather list: sges elements of sgeSize bytes, each at
// the given offset within its own page.
func (rg *rig) sgeList(base vm.VA, lkey uint32, sges, sgeSize, offset int) []hca.SGE {
	out := make([]hca.SGE, sges)
	for i := 0; i < sges; i++ {
		out[i] = hca.SGE{
			Addr:   base + vm.VA(i*machine.SmallPageSize+offset),
			Length: uint32(sgeSize),
			LKey:   lkey,
		}
	}
	return out
}

// measure runs one parameter combination: receiver preposts, sender posts
// the send WR, the adapter gathers and transmits, the receiver's adapter
// scatters and both sides poll completions.
func (rg *rig) measure(sges, sgeSize, offset int) (Result, error) {
	if uint64((sges-1)*machine.SmallPageSize+offset+sgeSize) > rg.span {
		return Result{}, fmt.Errorf("wrbench: parameters exceed buffer span")
	}
	sgl := rg.sgeList(rg.sendBuf, rg.sendMR.LKey, sges, sgeSize, offset)
	rgl := rg.sgeList(rg.recvBuf, rg.recvMR.LKey, sges, sgeSize, offset)

	// Fill the payload so the transfer moves real bytes: byte(sges + i).
	for _, s := range sgl {
		if err := rg.send.AS.WriteRamp(s.Addr, sges, sgeSize); err != nil {
			return Result{}, err
		}
	}

	// Warmup pass: the paper's test case loops each combination many
	// times, so the adapter's translation cache is warm for the steady-
	// state numbers reported.
	if _, err := rg.recvQP.PostRecv(0, rgl); err != nil {
		return Result{}, err
	}
	if _, err := rg.sendQP.Send(0, 0, sgl); err != nil {
		return Result{}, err
	}
	drainCQs(rg)

	// Receiver preposts (not part of the timed post, as in the paper the
	// receive side is already armed).
	if _, err := rg.recvQP.PostRecv(1, rgl); err != nil {
		return Result{}, err
	}

	// The timed work request, through the queue pair.
	res, err := rg.sendQP.Send(0, 1, sgl)
	if err != nil {
		return Result{}, err
	}
	post := res.Post
	poll := res.Complete() + rg.recv.PollCQ(trace.Ctx{}) + rg.send.PollCQ(trace.Ctx{})
	if rg.tr != nil {
		tc := rg.tr.At(trace.TrackMain, rg.now)
		args := []trace.Arg{
			trace.I64("sges", int64(sges)),
			trace.I64("sge_size", int64(sgeSize)),
			trace.I64("offset", int64(offset)),
		}
		tc.Span(trace.LHCA, "wr.post", post, args...).
			Span(trace.LHCA, "wr.poll", poll, args...)
	}
	rg.now += post + poll
	drainCQs(rg)

	// Verify delivery.
	got := make([]byte, sgeSize)
	for _, s := range rgl {
		if err := rg.recv.AS.Read(s.Addr, got); err != nil {
			return Result{}, err
		}
		for i := range got {
			if got[i] != byte(sges+i) {
				return Result{}, fmt.Errorf("wrbench: payload corrupted at %d", i)
			}
		}
	}
	return Result{
		SGEs: sges, SGESize: sgeSize, Offset: offset,
		PostTicks: post, PollTicks: poll,
	}, nil
}

// SGESweep reproduces Figure 3 on two hosts built from cfg (its machine,
// fault spec, policy engine and trace collector): work-request duration
// for each SGE count over a ladder of SGE sizes, at the default offset
// 64. Each measured combination appears as a wr.post + wr.poll span pair
// on the sender timeline, strung end to end in sweep order.
func SGESweep(cfg node.Config, sgeCounts, sgeSizes []int) ([]Result, error) {
	maxSGEs := 1
	for _, c := range sgeCounts {
		if c > maxSGEs {
			maxSGEs = c
		}
	}
	rg, err := newRig(cfg, maxSGEs)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, c := range sgeCounts {
		for _, s := range sgeSizes {
			res, err := rg.measure(c, s, 64)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// OffsetSweep reproduces Figure 4 with 1 SGE for each (offset, buffer
// size) combination, shaped exactly like SGESweep.
func OffsetSweep(cfg node.Config, offsets, sizes []int) ([]Result, error) {
	rg, err := newRig(cfg, 1)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, size := range sizes {
		for _, off := range offsets {
			res, err := rg.measure(1, size, off)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}
