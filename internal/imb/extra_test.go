package imb

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

func lazyHugeCfg(m *machine.Machine, ranks int) mpi.Config {
	return mpi.Config{
		Machine: m, Ranks: ranks,
		Allocator: mpi.AllocHuge, LazyDereg: true, HugeATT: true,
	}
}

func TestPingPongLatencyShape(t *testing.T) {
	sizes := []int{0, 64, 1024, 8 << 10, 64 << 10, 1 << 20}
	rs, err := PingPong(lazyHugeCfg(machine.Opteron(), 2), sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		t.Logf("%8dB: %7.2f us", r.Bytes, r.LatencyUsec)
		if i > 0 && r.LatencyTicks < rs[i-1].LatencyTicks {
			t.Errorf("latency not monotone at %d bytes", r.Bytes)
		}
	}
	// Zero-byte latency is the wire+software floor: single-digit us.
	if rs[0].LatencyUsec < 1 || rs[0].LatencyUsec > 20 {
		t.Errorf("0-byte half-RTT %.2f us outside plausible band", rs[0].LatencyUsec)
	}
	// Large messages approach wire bandwidth: 1 MiB at ~880 MB/s ≈ 1.2 ms.
	if got := rs[len(rs)-1].LatencyUsec; got < 900 || got > 2500 {
		t.Errorf("1 MiB half-RTT %.0f us outside wire-bandwidth band", got)
	}
}

func TestPingPongEagerRendezvousStep(t *testing.T) {
	// Crossing the 16 KiB RDMA threshold adds the rendezvous handshake:
	// latency must jump more than the size ratio alone explains.
	rs, err := PingPong(lazyHugeCfg(machine.Opteron(), 2), []int{8 << 10, 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	jump := float64(rs[1].LatencyTicks) / float64(rs[0].LatencyTicks)
	if jump < 1.5 {
		t.Errorf("eager->rendezvous step only %.2fx", jump)
	}
}
