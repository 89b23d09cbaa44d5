package hca_test

import (
	"errors"
	"testing"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/node/nodetest"
	"repro/internal/vm"
)

// qpRig builds two connected QPs with registered buffers on separate nodes.
type qpRig struct {
	sendAS, recvAS   *vm.AddressSpace
	sendHCA, recvHCA *hca.HCA
	sendQP, recvQP   *hca.QP
	sendVA, recvVA   vm.VA
	sendMR, recvMR   *hca.MR
}

func newQPRig(t *testing.T, sq, rq, cqDepth int) *qpRig {
	t.Helper()
	m := machine.Opteron()
	mk := func() (*vm.AddressSpace, *hca.HCA, vm.VA, *hca.MR) {
		n := nodetest.New(t, m)
		as, h := n.AS, n.Verbs.HW
		va, err := as.MapSmall(256 << 10)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := as.Pin(nil, va, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := h.InstallMR(va, 256<<10, pages, false)
		if err != nil {
			t.Fatal(err)
		}
		return as, h, va, mr
	}
	r := &qpRig{}
	r.sendAS, r.sendHCA, r.sendVA, r.sendMR = mk()
	r.recvAS, r.recvHCA, r.recvVA, r.recvMR = mk()
	var err error
	r.sendQP, err = r.sendHCA.CreateQP(hca.NewCQ(cqDepth), hca.NewCQ(cqDepth), sq, rq)
	if err != nil {
		t.Fatal(err)
	}
	r.recvQP, err = r.recvHCA.CreateQP(hca.NewCQ(cqDepth), hca.NewCQ(cqDepth), sq, rq)
	if err != nil {
		t.Fatal(err)
	}
	if err := hca.Connect(r.sendQP, r.recvQP); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestQPSendRecvMovesBytes(t *testing.T) {
	r := newQPRig(t, 4, 4, 16)
	payload := []byte("the quick brown fox")
	if err := r.sendAS.Write(r.sendVA, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := r.recvQP.PostRecv(77, []hca.SGE{{Addr: r.recvVA, Length: 64, LKey: r.recvMR.LKey}}); err != nil {
		t.Fatal(err)
	}
	res, err := r.sendQP.Send(1000, 42, []hca.SGE{{Addr: r.sendVA, Length: uint32(len(payload)), LKey: r.sendMR.LKey}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != len(payload) || res.Complete() <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	got := make([]byte, len(payload))
	if err := r.recvAS.Read(r.recvVA, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload corrupted: %q", got)
	}
	// Completions: receiver first (earlier timestamp), then sender ack.
	rc, ok, err := r.recvQP.RecvCQ.Poll()
	if err != nil || !ok || rc.WRID != 77 || !rc.IsRecv || rc.Bytes != len(payload) {
		t.Fatalf("recv CQE wrong: %+v ok=%v err=%v", rc, ok, err)
	}
	sc, ok, err := r.sendQP.SendCQ.Poll()
	if err != nil || !ok || sc.WRID != 42 || sc.IsRecv {
		t.Fatalf("send CQE wrong: %+v ok=%v err=%v", sc, ok, err)
	}
	if sc.Time < rc.Time {
		t.Fatal("sender ack cannot precede remote placement")
	}
}

func TestQPStateMachine(t *testing.T) {
	m := machine.Opteron()
	h := nodetest.New(t, m).Verbs.HW
	qp, err := h.CreateQP(hca.NewCQ(4), hca.NewCQ(4), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if qp.State() != hca.QPInit {
		t.Fatalf("fresh QP state %v", qp.State())
	}
	// Sending before Connect fails.
	if _, err := qp.Send(0, 1, nil); !errors.Is(err, hca.ErrQPState) {
		t.Fatalf("send on INIT QP: %v", err)
	}
	// Connecting twice fails.
	qp2, _ := h.CreateQP(hca.NewCQ(4), hca.NewCQ(4), 2, 2)
	if err := hca.Connect(qp, qp2); err != nil {
		t.Fatal(err)
	}
	if err := hca.Connect(qp, qp2); !errors.Is(err, hca.ErrQPState) {
		t.Fatalf("double connect: %v", err)
	}
}

func TestQPReceiverNotReady(t *testing.T) {
	r := newQPRig(t, 4, 4, 16)
	// No receive posted: RC send must fail and error the QP.
	_, err := r.sendQP.Send(0, 9, []hca.SGE{{Addr: r.sendVA, Length: 8, LKey: r.sendMR.LKey}})
	if !errors.Is(err, hca.ErrRQEmpty) {
		t.Fatalf("got %v, want ErrRQEmpty", err)
	}
	if r.sendQP.State() != hca.QPError {
		t.Fatalf("QP state %v after RNR exhaustion, want ERROR", r.sendQP.State())
	}
	// The failure produced a completion-with-error.
	e, ok, err := r.sendQP.SendCQ.Poll()
	if err != nil || !ok || e.SolErr == nil {
		t.Fatalf("expected error CQE, got %+v ok=%v err=%v", e, ok, err)
	}
	// Further sends fail with QP state error.
	if _, err := r.sendQP.Send(0, 10, nil); !errors.Is(err, hca.ErrQPState) {
		t.Fatalf("send on errored QP: %v", err)
	}
}

func TestRQDepthLimit(t *testing.T) {
	r := newQPRig(t, 4, 2, 16)
	sge := []hca.SGE{{Addr: r.recvVA, Length: 8, LKey: r.recvMR.LKey}}
	for i := 0; i < 2; i++ {
		if _, err := r.recvQP.PostRecv(uint64(i), sge); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.recvQP.PostRecv(3, sge); !errors.Is(err, hca.ErrRQFull) {
		t.Fatalf("got %v, want ErrRQFull", err)
	}
}

func TestCQOverflowIsFatal(t *testing.T) {
	r := newQPRig(t, 8, 8, 2) // tiny CQs
	sge := []hca.SGE{{Addr: r.sendVA, Length: 8, LKey: r.sendMR.LKey}}
	rsge := []hca.SGE{{Addr: r.recvVA, Length: 8, LKey: r.recvMR.LKey}}
	// Three sends without polling: the third completion overruns depth 2.
	for i := 0; i < 3; i++ {
		if _, err := r.recvQP.PostRecv(uint64(i), rsge); err != nil {
			t.Fatal(err)
		}
		if _, err := r.sendQP.Send(0, uint64(i), sge); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.sendQP.SendCQ.Poll(); !errors.Is(err, hca.ErrCQOverflow) {
		t.Fatalf("got %v, want ErrCQOverflow", err)
	}
	// Overrun is sticky.
	if _, _, err := r.sendQP.SendCQ.Poll(); !errors.Is(err, hca.ErrCQOverflow) {
		t.Fatal("overrun must be sticky")
	}
}

func TestCQPollEmpty(t *testing.T) {
	cq := hca.NewCQ(4)
	if _, ok, err := cq.Poll(); ok || err != nil {
		t.Fatal("empty poll should be (zero, false, nil)")
	}
}

func TestCreateQPValidation(t *testing.T) {
	m := machine.Opteron()
	h := nodetest.New(t, m).Verbs.HW
	if _, err := h.CreateQP(nil, hca.NewCQ(1), 1, 1); err == nil {
		t.Fatal("nil CQ accepted")
	}
	if _, err := h.CreateQP(hca.NewCQ(1), hca.NewCQ(1), 0, 1); err == nil {
		t.Fatal("zero depth accepted")
	}
	a, _ := h.CreateQP(hca.NewCQ(1), hca.NewCQ(1), 1, 1)
	b, _ := h.CreateQP(hca.NewCQ(1), hca.NewCQ(1), 1, 1)
	if a.Num == b.Num {
		t.Fatal("QP numbers collide")
	}
}
