package mpi

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/verbs"
)

func faultSpec(t *testing.T, s string) *faults.Spec {
	t.Helper()
	sp, err := faults.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// pressureWorkload crosses every path the fault spec can touch: eager
// and rendezvous Sendrecvs (forked halves under the shared memlock
// budget), a collective, and enough iterations for the periodic
// injections to fire.
func pressureWorkload(r *Rank) error {
	const big = 256 << 10
	peer := (r.ID() + 1) % r.Size()
	from := (r.ID() + r.Size() - 1) % r.Size()
	sendVA, err := r.Malloc(big)
	if err != nil {
		return err
	}
	recvVA, err := r.Malloc(big)
	if err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		if _, err := r.Sendrecv(peer, 10+i, sendVA, 2048, from, 10+i, recvVA, 2048); err != nil {
			return err
		}
		if _, err := r.Sendrecv(peer, 20+i, sendVA, big, from, 20+i, recvVA, big); err != nil {
			return err
		}
	}
	if err := r.AllreduceF64(sendVA, 64, Sum); err != nil {
		return err
	}
	return r.Barrier()
}

// runUnderFaults executes the pressure workload under a spec and returns
// the per-rank finish times plus telemetry.
func runUnderFaults(t *testing.T, spec *faults.Spec) ([]simtime.Ticks, []node.Stats) {
	t.Helper()
	cfg := defaultCfg(4)
	cfg.Faults = spec
	w := mustWorld(t, cfg)
	if err := w.Run(pressureWorkload); err != nil {
		t.Fatal(err)
	}
	times := make([]simtime.Ticks, w.Size())
	for i := 0; i < w.Size(); i++ {
		times[i] = w.Rank(i).Now()
	}
	return times, w.NodeStats()
}

func TestSameSeedRunsAreIdentical(t *testing.T) {
	// The overlapping-span determinism gate, extended to fault retries:
	// two runs with one fault spec must agree on every rank's finish time
	// and every telemetry counter, regardless of goroutine scheduling.
	// CI runs this package under -race, so the gate also proves the
	// injected paths are data-race-free.
	const s = "seed=7,hugecap=8,hugefail=40,shrink=100:2,memlock=16m,wr=50,attevict=400"
	t1, st1 := runUnderFaults(t, faultSpec(t, s))
	t2, st2 := runUnderFaults(t, faultSpec(t, s))
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("finish times differ across same-seed runs:\n%v\n%v", t1, t2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("telemetry differs across same-seed runs:\n%+v\n%+v", st1, st2)
	}
}

func TestFaultsActuallyFire(t *testing.T) {
	_, sts := runUnderFaults(t,
		faultSpec(t, "seed=7,hugecap=8,hugefail=40,shrink=100:2,memlock=16m,wr=20,attevict=200"))
	total := node.Sum(sts)
	if total.Faults.WRErrors == 0 || total.Faults.WRRetries == 0 {
		t.Fatalf("transient completion errors never fired: %+v", total.Faults)
	}
	if total.Faults.WRRetries < total.Faults.WRErrors {
		t.Fatalf("every injected error needs at least one repost: %+v", total.Faults)
	}
	if total.Faults.PoolPagesRemoved == 0 {
		t.Fatalf("pool cap/shrink removed no pages: %+v", total.Faults)
	}
	if total.Alloc.FallbackToSmall == 0 {
		t.Fatalf("capped pool should force library fallbacks: %+v", total.Alloc)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	tA, _ := runUnderFaults(t, faultSpec(t, "seed=1,wr=20"))
	tB, _ := runUnderFaults(t, faultSpec(t, "seed=2,wr=20"))
	if reflect.DeepEqual(tA, tB) {
		t.Fatal("different seeds produced identical timing — injection is not keyed on the seed")
	}
}

func TestNoSpecMatchesNilInjector(t *testing.T) {
	// A nil spec must behave exactly like the pre-fault-injection code:
	// same timing as another nil-spec run, zero fault counters.
	t1, st1 := runUnderFaults(t, nil)
	t2, st2 := runUnderFaults(t, nil)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("clean runs diverge: %v vs %v", t1, t2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("clean telemetry diverges")
	}
	total := node.Sum(st1)
	if total.Faults != (node.FaultStats{}) {
		t.Fatalf("clean run reported fault activity: %+v", total.Faults)
	}
}

// TestSendrecvMemlockFailureReturnsError: when a Sendrecv's receive
// half cannot register its buffer after matching the peer's RTS, the
// peer's send half is parked on a CTS that will never come. The failure
// must unblock it, so the run returns the registration error instead of
// a scheduler deadlock.
func TestSendrecvMemlockFailureReturnsError(t *testing.T) {
	const n = 16 << 20
	t.Run("write", func(t *testing.T) {
		w := mustWorld(t, Config{
			Machine:   machine.Opteron(),
			Ranks:     2,
			Allocator: AllocLibc,
			Faults:    faultSpec(t, "memlock=16m"),
		})
		err := w.Run(func(r *Rank) error {
			sva, err := r.Malloc(n)
			if err != nil {
				return err
			}
			rva, err := r.Malloc(n)
			if err != nil {
				return err
			}
			peer := 1 - r.ID()
			_, err = r.Sendrecv(peer, 0, sva, n, peer, 0, rva, n)
			return err
		})
		if !errors.Is(err, verbs.ErrMemlockExceeded) {
			t.Fatalf("run error = %v, want ErrMemlockExceeded", err)
		}
	})
}
