package memtier

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/simtime"
)

const pageB = machine.SmallPageSize

func ref(i int) PageRef { return PageRef{Frame: phys.Frame(i), Bytes: pageB} }

func mustNew(t *testing.T, cfg *Config) *Manager {
	t.Helper()
	m, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  *Config
		ok   bool
	}{
		{"nil", nil, true},
		{"two-tier", TwoTier(1<<20, 100, 500), true},
		{"one tier", &Config{Tiers: []Tier{{Name: "only"}}}, false},
		{"unnamed", &Config{Tiers: []Tier{{Name: "a"}, {}}}, false},
		{"duplicate", &Config{Tiers: []Tier{{Name: "a", CapacityBytes: 1}, {Name: "a"}}}, false},
		{"bounded last", &Config{Tiers: []Tier{{Name: "a"}, {Name: "b", CapacityBytes: 4096}}}, false},
		{"negative capacity", &Config{Tiers: []Tier{{Name: "a", CapacityBytes: -1}, {Name: "b"}}}, false},
		{"negative touch", &Config{Tiers: []Tier{{Name: "a", TouchTicks: -1}, {Name: "b"}}}, false},
		{"negative bw", &Config{Tiers: []Tier{{Name: "a", StreamBandwidthMBs: -1}, {Name: "b"}}}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestNilManagerIsDisabled(t *testing.T) {
	var m *Manager
	if m.TierCount() != 0 || m.FreeBytes(0) != 0 {
		t.Fatal("nil manager not inert")
	}
	if m.TierOf(ref(1)) != -1 {
		t.Fatal("nil TierOf != -1")
	}
	if d := m.Touch(ref(1), 64); d != 0 {
		t.Fatalf("nil Touch cost %d", d)
	}
	if n, c := m.Migrate([]PageRef{ref(1)}, 0); n != 0 || c != 0 {
		t.Fatal("nil Migrate did something")
	}
	if m.Assign([]PageRef{ref(1)}, 0) != 0 {
		t.Fatal("nil Assign placed")
	}
	if got := m.Stats(); !reflect.DeepEqual(got, Stats{}) {
		t.Fatalf("nil Stats() = %+v", got)
	}
}

func TestFirstTouchPlacementAndSpill(t *testing.T) {
	// Fast tier holds exactly two small pages.
	m := mustNew(t, TwoTier(2*pageB, 100, 0))
	if ti := m.TierOf(ref(1)); ti != 0 {
		t.Fatalf("page 1 placed in tier %d, want 0", ti)
	}
	if ti := m.TierOf(ref(2)); ti != 0 {
		t.Fatalf("page 2 placed in tier %d, want 0", ti)
	}
	// Third page spills to the slow tier.
	if ti := m.TierOf(ref(3)); ti != 1 {
		t.Fatalf("page 3 placed in tier %d, want spill to 1", ti)
	}
	s := m.Stats()
	if s.Tiers[0].UsedBytes != 2*pageB || s.Tiers[1].UsedBytes != pageB {
		t.Fatalf("used = %d/%d", s.Tiers[0].UsedBytes, s.Tiers[1].UsedBytes)
	}
	if s.Tiers[1].Spills != 1 {
		t.Fatalf("spills = %d, want 1", s.Tiers[1].Spills)
	}
	if s.Tiers[0].Assigns != 2 || s.Tiers[1].Assigns != 1 {
		t.Fatalf("assigns = %d/%d", s.Tiers[0].Assigns, s.Tiers[1].Assigns)
	}
	// Residency is sticky: re-looking-up does not reassign.
	if ti := m.TierOf(ref(1)); ti != 0 {
		t.Fatalf("page 1 moved to %d", ti)
	}
	if s2 := m.Stats(); s2.Tiers[0].Assigns != 2 {
		t.Fatalf("TierOf reassigned: %d", s2.Tiers[0].Assigns)
	}
}

func TestTouchCharges(t *testing.T) {
	m := mustNew(t, TwoTier(pageB, 100, 1000))
	if d := m.Touch(ref(1), 64); d != 0 {
		t.Fatalf("fast-tier touch cost %d, want 0", d)
	}
	// Page 2 spills to slow: latency + 4096 B at 1000 MB/s.
	want := simtime.Ticks(100) + simtime.BandwidthTicks(pageB, 1000)
	if d := m.Touch(ref(2), pageB); d != want {
		t.Fatalf("slow-tier touch cost %d, want %d", d, want)
	}
	s := m.Stats()
	if s.Tiers[1].TouchTicks != want {
		t.Fatalf("slow TouchTicks = %d, want %d", s.Tiers[1].TouchTicks, want)
	}
	if s.Tiers[0].TouchTicks != 0 {
		t.Fatalf("fast TouchTicks = %d, want 0", s.Tiers[0].TouchTicks)
	}
}

func TestMigratePromoteDemote(t *testing.T) {
	m := mustNew(t, TwoTier(2*pageB, 100, 0))
	for i := 1; i <= 4; i++ { // pages 3,4 spill to slow
		m.TierOf(ref(i))
	}
	// Promoting both slow pages only fits after demoting a fast one.
	if n, _ := m.Migrate([]PageRef{ref(3), ref(4)}, 0); n != 0 {
		t.Fatalf("overcommitting promote moved %d pages", n)
	}
	if n, c := m.Migrate([]PageRef{ref(1)}, 1); n != 1 || c <= 0 {
		t.Fatalf("demote: moved %d cost %d", n, c)
	}
	n, cost := m.Migrate([]PageRef{ref(3)}, 0)
	if n != 1 {
		t.Fatalf("promote moved %d", n)
	}
	if want := m.MigrateCost(1, pageB); cost != want {
		t.Fatalf("promote cost %d, want %d", cost, want)
	}
	if ti := m.TierOf(ref(3)); ti != 0 {
		t.Fatalf("page 3 in tier %d after promote", ti)
	}
	s := m.Stats()
	if s.Promotions != 1 || s.Demotions != 1 {
		t.Fatalf("promotions/demotions = %d/%d", s.Promotions, s.Demotions)
	}
	if s.MigratedBytes != 2*pageB {
		t.Fatalf("migrated bytes = %d", s.MigratedBytes)
	}
	if s.Tiers[0].UsedBytes != 2*pageB || s.Tiers[1].UsedBytes != 2*pageB {
		t.Fatalf("used = %d/%d", s.Tiers[0].UsedBytes, s.Tiers[1].UsedBytes)
	}
	// Migrating a page to its own tier is a no-op.
	if n, c := m.Migrate([]PageRef{ref(3)}, 0); n != 0 || c != 0 {
		t.Fatal("same-tier migrate did work")
	}
	// Peak saw three fast pages never; it saw 2 at most.
	if s.Tiers[0].PeakBytes != 2*pageB {
		t.Fatalf("fast peak = %d", s.Tiers[0].PeakBytes)
	}
}

func TestMigrateUntrackedPlaces(t *testing.T) {
	m := mustNew(t, TwoTier(4*pageB, 100, 0))
	n, cost := m.Migrate([]PageRef{ref(9)}, 1)
	if n != 0 || cost != 0 {
		t.Fatalf("untracked migrate reported a copy: n=%d cost=%d", n, cost)
	}
	if ti := m.TierOf(ref(9)); ti != 1 {
		t.Fatalf("untracked page landed in %d, want 1", ti)
	}
}

// TestReleaseReturnsCapacity checks that a page migrating out of the
// bounded fast tier returns its capacity there, for the next placement.
func TestReleaseReturnsCapacity(t *testing.T) {
	m := mustNew(t, TwoTier(pageB, 100, 0))
	m.TierOf(ref(1))
	if m.FreeBytes(0) != 0 {
		t.Fatal("fast tier not full")
	}
	if n, _ := m.Migrate([]PageRef{ref(1), ref(2)}, 1); n != 1 { // 2 untracked: placed, not moved
		t.Fatalf("migrate moved %d pages, want 1", n)
	}
	if m.FreeBytes(0) != pageB {
		t.Fatalf("free after migrating out = %d", m.FreeBytes(0))
	}
	if ti := m.TierOf(ref(3)); ti != 0 {
		t.Fatalf("freed capacity not reusable (tier %d)", ti)
	}
	if m.FreeBytes(1) != math.MaxInt64 {
		t.Fatal("unbounded tier not reported unbounded")
	}
}

func TestAssignHonorsHint(t *testing.T) {
	m := mustNew(t, TwoTier(8*pageB, 100, 0))
	if got := m.Assign([]PageRef{ref(1), ref(2)}, 1); got != 2 {
		t.Fatalf("Assign to slow placed %d", got)
	}
	if ti := m.TierOf(ref(1)); ti != 1 {
		t.Fatalf("assigned page in tier %d", ti)
	}
	// Already-resident pages are not re-placed.
	if got := m.Assign([]PageRef{ref(1)}, 0); got != 0 {
		t.Fatal("Assign moved a resident page")
	}
	// Out-of-range hint falls back to the last tier.
	if m.Assign([]PageRef{ref(3)}, 99) != 1 {
		t.Fatal("out-of-range Assign failed")
	}
	if ti := m.TierOf(ref(3)); ti != 1 {
		t.Fatalf("out-of-range hint landed in %d", ti)
	}
}

func TestHugePageAccounting(t *testing.T) {
	m := mustNew(t, TwoTier(machine.HugePageSize, 100, 0))
	huge := PageRef{Frame: phys.Frame(1000), Bytes: machine.HugePageSize}
	if ti := m.TierOf(huge); ti != 0 {
		t.Fatalf("hugepage in tier %d", ti)
	}
	// Fast tier is now exactly full; a small page spills.
	if ti := m.TierOf(ref(1)); ti != 1 {
		t.Fatalf("small page in tier %d, want spill", ti)
	}
	// Demoting the hugepage costs ~512x a small-page copy.
	_, hugeCost := m.Migrate([]PageRef{huge}, 1)
	small := m.MigrateCost(1, pageB)
	if hugeCost < 100*small {
		t.Fatalf("huge demote %d not ≫ small migrate %d", hugeCost, small)
	}
}

// TestMigrationDeterminism drives two managers through an identical
// seeded op sequence and requires bit-identical stats and costs — the
// memtier half of the ISSUE determinism criterion.
func TestMigrationDeterminism(t *testing.T) {
	run := func(seed int64) (Stats, simtime.Ticks) {
		rng := rand.New(rand.NewSource(seed))
		m := mustNew(t, TwoTier(64*pageB, 150, 800))
		var total simtime.Ticks
		for op := 0; op < 4096; op++ {
			r := ref(rng.Intn(256))
			switch rng.Intn(4) {
			case 0:
				total += m.Touch(r, uint64(rng.Intn(pageB)))
			case 1:
				_, c := m.Migrate([]PageRef{r, ref(rng.Intn(256))}, 0)
				total += c
			case 2:
				_, c := m.Migrate([]PageRef{r}, 1)
				total += c
			case 3:
				m.Assign([]PageRef{r}, rng.Intn(2))
			}
		}
		return m.Stats(), total
	}
	for _, seed := range []int64{1, 2, 7} {
		s1, c1 := run(seed)
		s2, c2 := run(seed)
		if !reflect.DeepEqual(s1, s2) || c1 != c2 {
			t.Fatalf("seed %d diverged:\n%+v (%d)\n%+v (%d)", seed, s1, c1, s2, c2)
		}
	}
}
