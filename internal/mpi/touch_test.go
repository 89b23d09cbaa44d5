package mpi

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/memtier"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/vm"
)

// touchRun is what one rank's reads leave behind: its clock and
// compute time, its node's telemetry (DTLB, tiers and the rest) and its
// address space's translation counters.
type touchRun struct {
	now, compute simtime.Ticks
	node         node.Stats
	vm           vm.Stats
}

// TestTouchChargesLikeReadBytes: Touch charges exactly what ReadBytes
// of the same ranges charges, in virtual time, DTLB counters and tier
// touch stats, on a small-page node, a hugepage node and a tiered node
// whose fast tier holds only part of the buffer.
func TestTouchChargesLikeReadBytes(t *testing.T) {
	const bufBytes = 3 << 20
	// Ranges from one byte to the whole buffer, on and off page and
	// hugepage boundaries.
	ranges := []struct{ off, n int }{
		{0, 1}, {100, machine.SmallPageSize}, {machine.SmallPageSize - 1, 3 * machine.SmallPageSize},
		{machine.HugePageSize - 5, 10}, {0, bufBytes}, {1 << 20, 1 << 20},
	}
	tiered := defaultCfg(1)
	tiered.Allocator = AllocLibc
	tiered.Tiers = memtier.TwoTier(1<<20, 120, 900)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"small", Config{Machine: machine.Opteron(), Ranks: 1, Allocator: AllocLibc}},
		{"huge", defaultCfg(1)},
		{"tiered", tiered},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(touch bool) touchRun {
				w := mustWorld(t, c.cfg)
				defer w.Close()
				var out touchRun
				err := w.Run(func(r *Rank) error {
					va, err := r.Malloc(bufBytes)
					if err != nil {
						return err
					}
					if err := r.WriteRamp(va, 3, bufBytes); err != nil {
						return err
					}
					buf := make([]byte, bufBytes)
					for range 2 { // the second pass hits a warm DTLB
						for _, rg := range ranges {
							if touch {
								err = r.Touch(va+vm.VA(rg.off), rg.n)
							} else {
								err = r.ReadBytes(va+vm.VA(rg.off), buf[:rg.n])
							}
							if err != nil {
								return err
							}
						}
					}
					out = touchRun{r.Now(), r.ComputeTime(), r.node.Stats(), r.AS().Stats()}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			read, touch := run(false), run(true)
			if read.compute == 0 {
				t.Fatal("the reads charged nothing")
			}
			if mt := read.node.Memtier; c.cfg.Tiers != nil && (mt.Fast.Assigns == 0 || mt.Slow.TouchTicks == 0) {
				t.Fatalf("the buffer does not span both tiers: %+v", mt)
			}
			if !reflect.DeepEqual(touch, read) {
				t.Fatalf("Touch left\n%+v\nReadBytes left\n%+v", touch, read)
			}
		})
	}
}

// TestTouchUnmappedFails: Touch of a range that runs past its mapping
// fails like ReadBytes and charges nothing.
func TestTouchUnmappedFails(t *testing.T) {
	w := mustWorld(t, defaultCfg(1))
	defer w.Close()
	err := w.Run(func(r *Rank) error {
		// The newest hugepage mapping: nothing is mapped past its end.
		va, err := r.AS().MapHuge(machine.HugePageSize)
		if err != nil {
			return err
		}
		end := va + machine.HugePageSize
		before := r.Now()
		for _, va := range []vm.VA{0, end, end - 8} {
			if err := r.Touch(va, 16); !errors.Is(err, vm.ErrUnmapped) {
				t.Errorf("Touch(%#x, 16) = %v, want ErrUnmapped", uint64(va), err)
			}
		}
		if r.Now() != before {
			t.Errorf("failed touches advanced the clock by %d ticks", r.Now()-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTierCallsOnPlacedPagesAllocateNothing: once a buffer's pages are
// placed and the rank's page buffers have grown to its size, TierAssign
// and TierMigrate over it allocate no object, on small pages and on
// hugepages.
func TestTierCallsOnPlacedPagesAllocateNothing(t *testing.T) {
	for _, alloc := range []AllocatorKind{AllocLibc, AllocHuge} {
		cfg := defaultCfg(1)
		cfg.Allocator = alloc
		cfg.Tiers = memtier.TwoTier(64<<20, 120, 900)
		w := mustWorld(t, cfg)
		var assign, migrate float64
		err := w.Run(func(r *Rank) error {
			const n = 4 << 20
			va, err := r.Malloc(n)
			if err != nil {
				return err
			}
			if err := r.TierAssign(va, n, 1); err != nil {
				return err
			}
			var rerr error
			assign = testing.AllocsPerRun(20, func() {
				if err := r.TierAssign(va, n, 0); err != nil {
					rerr = err
				}
			})
			tier := 0
			migrate = testing.AllocsPerRun(20, func() {
				if _, err := r.TierMigrate(va, n, tier); err != nil {
					rerr = err
				}
				tier = 1 - tier
			})
			return rerr
		})
		if err != nil {
			t.Fatalf("%s: %v", alloc, err)
		}
		if assign != 0 || migrate != 0 {
			t.Fatalf("%s: TierAssign allocates %.1f and TierMigrate %.1f objects per call on placed pages, want 0",
				alloc, assign, migrate)
		}
	}
}
