package mpi

import "testing"

func TestEagerCreditsThrottleFloods(t *testing.T) {
	// A sender flooding eager messages well past its credit pool must
	// block until the receiver drains — and its clock must reflect the
	// receiver's pace rather than racing ahead.
	w := mustWorld(t, defaultCfg(2))
	const msgs = 8 * eagerCredits
	err := w.Run(func(r *Rank) error {
		va, _ := r.Malloc(8 << 10)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := r.Send(1, 5, va, 4<<10); err != nil {
					return err
				}
			}
			return nil
		}
		// Slow receiver: compute between receives.
		for i := 0; i < msgs; i++ {
			r.Compute(100_000)
			if _, err := r.Recv(0, 5, va, 4<<10); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sender cannot have finished much before the receiver's pace:
	// it is at most eagerCredits messages ahead.
	sender, receiver := w.Rank(0).Now(), w.Rank(1).Now()
	if float64(sender) < 0.8*float64(receiver) {
		t.Fatalf("sender finished at %d, receiver at %d: flow control not engaged", sender, receiver)
	}
}

func TestEagerCreditsDefaultDoesNotThrottlePingPong(t *testing.T) {
	cfg := defaultCfg(2) // eagerCredits per peer
	w := mustWorld(t, cfg)
	err := w.Run(func(r *Rank) error {
		va, _ := r.Malloc(4 << 10)
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				if err := r.Send(1, i, va, 1024); err != nil {
					return err
				}
				if _, err := r.Recv(1, i, va, 1024); err != nil {
					return err
				}
			} else {
				if _, err := r.Recv(0, i, va, 1024); err != nil {
					return err
				}
				if err := r.Send(0, i, va, 1024); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
