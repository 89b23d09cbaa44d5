package phys

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
)

func spec(t *testing.T, s string) *faults.Spec {
	t.Helper()
	sp, err := faults.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestPoolCapTrimsAtAttach(t *testing.T) {
	m := testMem(t)
	total := m.HugeTotal()
	m.SetFaults(faults.New(spec(t, "seed=1,hugecap=8"), 0))
	if got := m.HugeAvailable(); got != 8 {
		t.Fatalf("capped pool exposes %d pages, want 8", got)
	}
	st := m.Stats()
	if st.HugeRemoved != int64(total-8) {
		t.Fatalf("HugeRemoved = %d, want %d", st.HugeRemoved, total-8)
	}
}

func TestInjectedHugeFailIsOutOfHugepages(t *testing.T) {
	m := testMem(t)
	m.SetFaults(faults.New(spec(t, "seed=1,hugefail=1"), 0)) // every call fails
	_, err := m.AllocHuge()
	if !errors.Is(err, ErrOutOfHugepages) {
		t.Fatalf("got %v, want ErrOutOfHugepages", err)
	}
	st := m.Stats()
	if st.HugeInjected != 1 || st.HugeFailures != 1 {
		t.Fatalf("injected failure not counted: %+v", st)
	}
	if m.HugeAvailable() == 0 {
		t.Fatal("spurious refusal should not consume pages")
	}
}

func TestShrinkRemovesFreePages(t *testing.T) {
	m := testMem(t)
	m.SetFaults(faults.New(spec(t, "seed=1,shrink=1:3"), 0)) // shrink on every call
	before := m.HugeAvailable()
	if _, err := m.AllocHuge(); err != nil {
		t.Fatal(err)
	}
	// One page allocated, three removed by the shrink.
	if got := m.HugeAvailable(); got != before-4 {
		t.Fatalf("available = %d, want %d", got, before-4)
	}
	if st := m.Stats(); st.HugeRemoved != 3 {
		t.Fatalf("HugeRemoved = %d, want 3", st.HugeRemoved)
	}
}

func TestReserveComposesAndValidates(t *testing.T) {
	m := NewMemory(machine.Opteron())
	free := m.HugeAvailable()
	if err := m.Reserve(4); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(6); err != nil {
		t.Fatal(err)
	}
	if got := free - m.HugeAvailable(); got != 10 {
		t.Fatalf("reserves should compose: held %d, want 10", got)
	}
	if err := m.Reserve(m.HugeTotal()); !errors.Is(err, ErrBadReserve) {
		t.Fatalf("overcommitting reserve: got %v, want ErrBadReserve", err)
	}
	if got := free - m.HugeAvailable(); got != 10 {
		t.Fatalf("failed Reserve changed the hold: %d", got)
	}
	if err := m.Reserve(-1); !errors.Is(err, ErrBadReserve) {
		t.Fatalf("negative reserve: got %v, want ErrBadReserve", err)
	}
}

// drainHuge allocates hugepages until the pool refuses and returns them
// in the order they were handed out.
func drainHuge(m *Memory) []Frame {
	var out []Frame
	for {
		f, err := m.AllocHuge()
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

// TestPoolTrimsRemoveLastHandedOut checks that a pool cap at attach and
// a mid-run shrink both take the free pages an untrimmed twin would
// hand out last, after frees have reordered the free stack, and that
// the trimmed pages never come back.
func TestPoolTrimsRemoveLastHandedOut(t *testing.T) {
	// prep allocates five pages and frees two of them out of order.
	prep := func(m *Memory) {
		var fs []Frame
		for i := 0; i < 5; i++ {
			f, err := m.AllocHuge()
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
		_ = m.FreeHuge(fs[3])
		_ = m.FreeHuge(fs[1])
	}
	for _, c := range []struct {
		name    string
		faults  string
		removed int
	}{
		{name: "cap", faults: "seed=1,hugecap=8", removed: 512 - 3 - 8},
		{name: "shrink", faults: "seed=1,shrink=1:3", removed: 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, twin := testMem(t), testMem(t)
			prep(got)
			prep(twin)
			got.SetFaults(faults.New(spec(t, c.faults), 0))
			var first []Frame
			if c.name == "shrink" {
				// One allocation fires one shrink, then faults detach.
				f, err := got.AllocHuge()
				if err != nil {
					t.Fatal(err)
				}
				first = append(first, f)
				got.SetFaults(nil)
			}
			want := drainHuge(twin)
			all := append(first, drainHuge(got)...)
			if st := got.Stats(); st.HugeRemoved != int64(c.removed) {
				t.Fatalf("HugeRemoved = %d, want %d", st.HugeRemoved, c.removed)
			}
			if len(all) != len(want)-c.removed {
				t.Fatalf("trimmed pool handed out %d pages, want %d", len(all), len(want)-c.removed)
			}
			for i := range all {
				if all[i] != want[i] {
					t.Fatalf("page %d = %d, want %d: the trim took a page other than the last ones", i, all[i], want[i])
				}
			}
			// Every page goes back onto the freed stack, and the trimmed
			// pages stay out of the pool for good.
			for _, f := range all {
				if err := got.FreeHuge(f); err != nil {
					t.Fatal(err)
				}
			}
			held := int(got.Stats().HugeAllocated) // prep's three pages
			if n, free := len(got.hugeFree), got.hugeFreeCount(); n != len(all) || free != got.hugeTotal-c.removed-held {
				t.Fatalf("free stack holds %d pages of %d free, want %d of %d", n, free, len(all), got.hugeTotal-c.removed-held)
			}
		})
	}
}
