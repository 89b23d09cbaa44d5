package verbs_test

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/verbs"
)

func TestMemlockCeilingRejects(t *testing.T) {
	c := ctx(t, machine.Opteron())
	c.MemlockLimit = 1536 << 10 // room for one 1 MiB registration, not two
	va1, _ := c.AS.MapSmall(1 << 20)
	va2, _ := c.AS.MapSmall(1 << 20)
	mr1, _, err := c.RegMR(va1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RegMR(va2, 1<<20); !errors.Is(err, verbs.ErrMemlockExceeded) {
		t.Fatalf("second registration: got %v, want ErrMemlockExceeded", err)
	}
	st := c.Stats()
	if st.MemlockRejections != 1 {
		t.Fatalf("MemlockRejections = %d, want 1", st.MemlockRejections)
	}
	if st.PinnedBytes != 1<<20 {
		t.Fatalf("rejection must not leak budget: pinned %d, want %d", st.PinnedBytes, 1<<20)
	}
	// Deregistration returns the budget; the refused registration now fits.
	if _, err := c.DeregMR(mr1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RegMR(va2, 1<<20); err != nil {
		t.Fatalf("registration after budget release: %v", err)
	}
	if got := c.Stats().PinnedBytes; got != 1<<20 {
		t.Fatalf("pinned gauge = %d, want %d", got, 1<<20)
	}
}

func TestNoLimitMeansUnlimited(t *testing.T) {
	c := ctx(t, machine.Opteron()) // MemlockLimit zero
	for i := 0; i < 4; i++ {
		va, _ := c.AS.MapSmall(4 << 20)
		if _, _, err := c.RegMR(va, 4<<20); err != nil {
			t.Fatalf("registration %d under no limit: %v", i, err)
		}
	}
}
