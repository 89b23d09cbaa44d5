// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and
// reports the reproduced metrics through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the full paper-vs-measured record (also captured in
// EXPERIMENTS.md). Absolute times are virtual ticks; the shapes and
// ratios are the reproduction targets.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/nas"
	"repro/internal/workload"
)

// BenchmarkFig3SGE regenerates Figure 3: work-request duration by number
// of scatter/gather elements, on the IBM System p / eHCA system.
func BenchmarkFig3SGE(b *testing.B) {
	for _, sges := range []int{1, 2, 4, 8, 128} {
		b.Run(fmt.Sprintf("sges=%d", sges), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := SGESweep(SystemP(), []int{sges}, []int{64})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rs[0].PostTicks), "post-ticks")
				b.ReportMetric(float64(rs[0].PollTicks), "poll-ticks")
			}
		})
	}
}

// BenchmarkFig4Offset regenerates Figure 4: work-request duration by
// buffer offset within a page (1 SGE, 64-byte buffers).
func BenchmarkFig4Offset(b *testing.B) {
	for _, off := range []int{0, 32, 64, 96, 128} {
		b.Run(fmt.Sprintf("offset=%d", off), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := OffsetSweep(SystemP(), []int{off}, []int{64})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rs[0].Total()), "wr-ticks")
			}
		})
	}
}

// BenchmarkFig5IMB regenerates Figure 5: IMB SendRecv bandwidth for the
// four page-size x lazy-deregistration configurations on the Opteron.
func BenchmarkFig5IMB(b *testing.B) {
	for _, name := range []string{"small", "huge", "small-lazy", "huge-lazy"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := IMBSendRecv(MustStrategy(name).Apply(ClusterConfig{
					Machine: Opteron(), Ranks: 2,
				}), []int{4 << 20})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rs[0].BandwidthMBs, "MB/s@4MiB")
			}
		})
	}
}

// BenchmarkFig5XeonATT regenerates the Section 5.1 Xeon experiment (E4):
// lazy-deregistration bandwidth with and without hugepage translations
// pushed to the adapter.
func BenchmarkFig5XeonATT(b *testing.B) {
	for _, c := range []struct{ name, strategy string }{
		{"unpatched-driver", "huge-lazy-noatt"},
		{"hugepage-att-patch", "huge-lazy"},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := IMBSendRecv(MustStrategy(c.strategy).Apply(ClusterConfig{
					Machine: Xeon(), Ranks: 2,
				}), []int{4 << 20})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rs[0].BandwidthMBs, "MB/s@4MiB")
			}
		})
	}
}

// BenchmarkFig6NAS regenerates Figure 6: per-kernel communication /
// other / overall improvement of the hugepage library over libc, plus the
// Section 5.2 TLB-miss ratio (E5+E6), on the Opteron at 8 ranks. Each
// kernel's metrics are its row of cmd/repro's Figure 6 table.
func BenchmarkFig6NAS(b *testing.B) {
	for _, k := range NASKernels() {
		b.Run(k.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := nas.RunFig6(ClusterConfig{Machine: Opteron(), Ranks: 8}, []nas.Kernel{k})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].CommImprove, "comm-impr-%")
				b.ReportMetric(rows[0].OtherImprove, "other-impr-%")
				b.ReportMetric(rows[0].OverallImprove, "overall-impr-%")
				b.ReportMetric(rows[0].TLBMissRatio, "tlb-miss-ratio")
			}
		})
	}
}

// BenchmarkRegistration regenerates the registration-cost premise (E9):
// RegMR time for an 8 MiB buffer in 4 KiB pages vs 2 MiB hugepages.
func BenchmarkRegistration(b *testing.B) {
	for _, m := range Machines() {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := RegistrationSweep(m, []uint64{8 << 20})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rows[0].SmallReg), "smallpage-ticks")
				b.ReportMetric(float64(rows[0].HugeReg), "hugepage-ticks")
				b.ReportMetric(100*rows[0].HugeFrac, "huge-vs-small-%")
			}
		})
	}
}

// BenchmarkAbinitAlloc regenerates the Section 2 allocator claim (E7):
// alloc/free time of the hugepage library vs libc on the Abinit-style
// trace ("allocation benefits of up to 10 times").
func BenchmarkAbinitAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		libc, huge, err := AbinitComparison(Opteron())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(libc), "libc-ticks")
		b.ReportMetric(float64(huge), "hugelib-ticks")
		b.ReportMetric(float64(libc)/float64(huge), "speedup-x")
	}
}

// BenchmarkAllocAblations regenerates the Section 3 design-choice
// ablations (E8): the library with single design points flipped, on the
// Abinit trace, on the Opteron.
func BenchmarkAllocAblations(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*alloc.HugeConfig)
	}{
		{"paper-design", func(c *alloc.HugeConfig) {}},
		{"coalesce-on-free", func(c *alloc.HugeConfig) { c.CoalesceOnFree = true }},
		{"in-band-metadata", func(c *alloc.HugeConfig) { c.InBandMetadata = true }},
		{"chunk-64k", func(c *alloc.HugeConfig) { c.ChunkSize = 64 << 10 }},
		{"threshold-4k", func(c *alloc.HugeConfig) { c.Threshold = 4 << 10 }},
	}
	ops, slots := workload.AbinitTrace(workload.DefaultAbinitParams())
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := alloc.DefaultHugeConfig()
				v.mutate(&cfg)
				n, err := NewNode(NodeConfig{Machine: Opteron(), Allocator: "huge", HugeConfig: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				a := n.Alloc
				res, err := alloc.Replay(a, ops, slots)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.AllocTime), "alloc-ticks")
			}
		})
	}
}

// BenchmarkSGEAggregation regenerates the Section 4 proposal at the MPI
// level: sending 8 x 96 B pieces via MPI_Pack copies versus one
// scatter/gather work request.
func BenchmarkSGEAggregation(b *testing.B) {
	run := func(b *testing.B, gathered bool) Ticks {
		w, err := NewCluster(hugeLazy(SystemP(), 2))
		if err != nil {
			b.Fatal(err)
		}
		var elapsed Ticks
		err = w.Run(func(r *Rank) error {
			base, err := r.Malloc(64 << 10)
			if err != nil {
				return err
			}
			pieces := make([]Piece, 8)
			for i := range pieces {
				pieces[i] = Piece{VA: base + VA(i*4096+64), Len: 96}
			}
			if r.ID() == 0 {
				t0 := r.Now()
				for it := 0; it < 50; it++ {
					if gathered {
						if err := r.SendGathered(1, it, pieces); err != nil {
							return err
						}
					} else {
						if err := r.SendPacked(1, it, pieces); err != nil {
							return err
						}
					}
				}
				elapsed = r.Now() - t0
				return nil
			}
			for it := 0; it < 50; it++ {
				if err := r.RecvUnpack(0, it, pieces); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return elapsed / 50
	}
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(float64(run(b, false)), "send-ticks")
		}
	})
	b.Run("gathered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(float64(run(b, true)), "send-ticks")
		}
	})
}

// BenchmarkRegCacheBound ablates the pin-down cache size: the smaller the
// pinned-memory bound, the more re-registration traffic — and the more
// hugepages help. This is the mechanism behind the Figure 6 communication
// improvements.
func BenchmarkRegCacheBound(b *testing.B) {
	for _, bound := range []int64{0, 2 << 20} { // 0 = unbounded
		name := "unbounded"
		if bound > 0 {
			name = "bound=2MiB"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := NewCluster(MustStrategy("small-lazy").Apply(ClusterConfig{
					Machine: Opteron(), Ranks: 2,
				}))
				if err != nil {
					b.Fatal(err)
				}
				var comm Ticks
				err = w.Run(func(r *Rank) error {
					r.Cache().MaxPinned = bound
					const n, slices = 512 << 10, 8
					va, err := r.Malloc(n * slices)
					if err != nil {
						return err
					}
					rva, err := r.Malloc(n * slices)
					if err != nil {
						return err
					}
					peer := 1 - r.ID()
					for it := 0; it < 6; it++ {
						for s := 0; s < slices; s++ {
							off := VA(s * n)
							if _, err := r.Sendrecv(peer, s, va+off, n, peer, s, rva+off, n); err != nil {
								return err
							}
						}
					}
					if r.ID() == 0 {
						comm = r.CommTime()
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(comm), "comm-ticks")
			}
		})
	}
}
