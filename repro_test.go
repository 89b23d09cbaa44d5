package repro

import (
	"testing"

	"repro/internal/mpi"
)

func TestMachinesRoster(t *testing.T) {
	ms := Machines()
	if len(ms) != 3 {
		t.Fatal("expected the paper's three test systems")
	}
	for i, m := range []*Machine{Opteron(), Xeon(), SystemP()} {
		if ms[i].Name != m.Name {
			t.Errorf("Machines()[%d] = %s, want %s", i, ms[i].Name, m.Name)
		}
	}
}

func TestNewClusterValidatesStrategy(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Ranks: 2}); err == nil {
		t.Fatal("cluster without a machine accepted")
	}
	if _, ok := mpi.StrategyByName("bogus"); ok {
		t.Fatal("unknown strategy resolved")
	}
	c, err := NewCluster(hugeLazy(Opteron(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatal("wrong cluster size")
	}
	if got := c.Config().Allocator; got != "huge" {
		t.Fatalf("huge-lazy cluster runs allocator %q", got)
	}
}

// TestStrategiesBuildOnEveryMachine checks the strategy table through
// the public API: every named strategy builds a cluster on each of the
// paper's machines, and the recipe ("huge-lazy") carries every
// placement knob the paper names.
func TestStrategiesBuildOnEveryMachine(t *testing.T) {
	for _, m := range Machines() {
		for _, s := range mpi.Strategies() {
			if _, err := NewCluster(s.Apply(ClusterConfig{Machine: m, Ranks: 1})); err != nil {
				t.Errorf("%s on %s: %v", s.Name, m.Name, err)
			}
		}
	}
	if s := MustStrategy("huge-lazy"); s.Allocator != "huge" || !s.LazyDereg || !s.HugeATT {
		t.Errorf("huge-lazy misses a paper feature: %+v", s)
	}
}

// hugeLazy is the paper's full recipe on a machine and rank count.
func hugeLazy(m *Machine, ranks int) ClusterConfig {
	return MustStrategy("huge-lazy").Apply(ClusterConfig{Machine: m, Ranks: ranks})
}

func TestPublicPingPong(t *testing.T) {
	c, err := NewCluster(hugeLazy(Opteron(), 2))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(r *Rank) error {
		va, err := r.Malloc(64 << 10)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			return r.Send(1, 7, va, 64<<10)
		}
		_, err = r.Recv(0, 7, va, 64<<10)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxTime() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestAbinitComparisonHeadline(t *testing.T) {
	libc, huge, err := AbinitComparison(Opteron())
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(libc) / float64(huge)
	if speedup < 5 || speedup > 15 {
		t.Fatalf("Abinit allocation speedup %.1fx, want ~10x", speedup)
	}
}

func TestRegistrationSweepHeadline(t *testing.T) {
	rows, err := RegistrationSweep(Opteron(), []uint64{8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].HugeFrac > 0.03 {
		t.Fatalf("hugepage registration %.1f%% of small-page, want ~1%%", 100*rows[0].HugeFrac)
	}
}

func TestNASKernelRoster(t *testing.T) {
	ks := NASKernels()
	if len(ks) != 5 {
		t.Fatalf("got %d kernels, want 5", len(ks))
	}
	for i, name := range []string{"cg", "ep", "is", "lu", "mg"} {
		if ks[i].Name() != name {
			t.Errorf("kernel %d is %s, want %s", i, ks[i].Name(), name)
		}
	}
}

func TestClusterNodeStatsTelemetry(t *testing.T) {
	// A small Figure 5-style exchange under the recommended placement must
	// leave per-node telemetry behind: TLB walks from the buffer fills,
	// registration-cache traffic from the rendezvous transfers.
	c, err := NewCluster(hugeLazy(Opteron(), 2))
	if err != nil {
		t.Fatal(err)
	}
	const size = 4 << 20
	err = c.Run(func(r *Rank) error {
		va, err := r.Malloc(size)
		if err != nil {
			return err
		}
		fill := make([]byte, size)
		for i := 0; i < 2; i++ {
			if err := r.WriteBytes(va, fill); err != nil {
				return err
			}
			if r.ID() == 0 {
				if err := r.Send(1, 9, va, size); err != nil {
					return err
				}
			} else if _, err := r.Recv(0, 9, va, size); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		st := c.Rank(i).Node().Stats()
		if st.Machine != Opteron().Name || st.Allocator != "huge" {
			t.Fatalf("rank %d identity wrong: %q %q", i, st.Machine, st.Allocator)
		}
		if st.TLB.Hits2M+st.TLB.Misses2M+st.TLB.Hits4K+st.TLB.Misses4K == 0 {
			t.Fatalf("rank %d: no TLB telemetry after buffer fills", i)
		}
		if st.Cache.Hits+st.Cache.Misses == 0 {
			t.Fatalf("rank %d: registration cache never consulted", i)
		}
		if st.Reg.Registrations == 0 || st.HCA.BusBytes == 0 {
			t.Fatalf("rank %d: transfer left no registration/DMA telemetry: %+v", i, st)
		}
	}
	sts := c.NodeStats()
	if len(sts) != 2 {
		t.Fatalf("Cluster.NodeStats returned %d snapshots, want 2", len(sts))
	}
}

func TestNewAllocatorKinds(t *testing.T) {
	for _, kind := range []string{"libc", "huge", "morecore", "pagesep"} {
		a, err := NewAllocator(Opteron(), kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		va, err := a.Alloc(100 << 10)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := a.Free(va); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := NewAllocator(Opteron(), "tcmalloc"); err == nil {
		t.Fatal("unknown allocator kind accepted")
	}
}

func TestIMBThroughPublicAPI(t *testing.T) {
	rs, err := IMBSendRecv(hugeLazy(Opteron(), 2), []int{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].BandwidthMBs < 1500 || rs[0].BandwidthMBs > 1900 {
		t.Fatalf("1MiB lazy hugepage bandwidth %.0f MB/s out of band", rs[0].BandwidthMBs)
	}
}

func TestWRSweepsThroughPublicAPI(t *testing.T) {
	rs, err := SGESweep(SystemP(), []int{1}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].PostTicks < 400 || rs[0].PostTicks > 700 {
		t.Fatalf("post cost %d out of the paper's band", rs[0].PostTicks)
	}
	os, err := OffsetSweep(SystemP(), []int{0, 64}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if os[1].Total() >= os[0].Total() {
		t.Fatal("offset 64 should beat offset 0")
	}
}
