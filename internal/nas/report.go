package nas

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/node"
)

// Fig6Row is one benchmark's bar group in Figure 6: the communication /
// other (computation) / overall improvement of the hugepage-library run
// over the libc run, plus the Section 5.2 TLB-miss ratio (E6).
type Fig6Row struct {
	Kernel string
	// Improvements in percent: (libc - huge) / libc * 100.
	CommImprove    float64
	OtherImprove   float64
	OverallImprove float64
	// TLBMissRatio is huge-run misses / libc-run misses (PAPI_TLB_DM).
	TLBMissRatio float64
	Small        Result
	Huge         Result
}

// RunFig6 reproduces Figure 6 under cfg: every kernel under libc and
// under the hugepage library (the table's "small-lazy" and "huge-lazy"
// strategies applied over cfg), at cfg's machine and rank count (the
// paper uses 8). Both runs of a kernel face the same deterministic fault
// schedule, so the improvement split stays a like-for-like comparison
// under pressure. Timelines are prefixed by machine, kernel and
// allocator ("opteron/cg-huge/rank0", …), so one trace collector holds
// the whole figure even across machines. nil kernels runs all five.
func RunFig6(cfg mpi.Config, kernels []Kernel) ([]Fig6Row, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("nas: config needs a machine")
	}
	if kernels == nil {
		kernels = All()
	}
	small, huge := mpi.MustStrategy("small-lazy"), mpi.MustStrategy("huge-lazy")
	run := func(s mpi.Strategy, k Kernel) (Result, error) {
		c := s.Apply(cfg)
		c.TracePrefix = fmt.Sprintf("%s%s/%s-%s/", cfg.TracePrefix, cfg.Machine.Name, k.Name(), c.Allocator)
		return RunKernel(c, k)
	}
	rows := make([]Fig6Row, 0, len(kernels))
	for _, k := range kernels {
		s, err := run(small, k)
		if err != nil {
			return nil, err
		}
		h, err := run(huge, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NewFig6Row(s, h))
	}
	return rows, nil
}

// NewFig6Row derives the improvement split from a libc/hugepage run pair.
func NewFig6Row(small, huge Result) Fig6Row {
	pct := func(s, h int64) float64 {
		if s == 0 {
			return 0
		}
		return 100 * float64(s-h) / float64(s)
	}
	ratio := func(h, s int64) float64 {
		if s == 0 {
			return 0
		}
		return float64(h) / float64(s)
	}
	return Fig6Row{
		Kernel:         small.Kernel,
		CommImprove:    pct(int64(small.Comm), int64(huge.Comm)),
		OtherImprove:   pct(int64(small.Compute), int64(huge.Compute)),
		OverallImprove: pct(int64(small.Total), int64(huge.Total)),
		TLBMissRatio:   ratio(node.Sum(huge.Nodes).TLB.Misses(), node.Sum(small.Nodes).TLB.Misses()),
		Small:          small,
		Huge:           huge,
	}
}

// FormatFig6 renders the rows as the paper's figure-six table.
func FormatFig6(machineName string, rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Application performance benefits with hugepages (%s)\n", machineName)
	fmt.Fprintf(&b, "%-4s %14s %14s %14s %14s\n",
		"", "comm impr %", "other impr %", "overall impr %", "TLB miss ratio")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-4s %14.1f %14.1f %14.1f %14.2f\n",
			strings.ToUpper(row.Kernel), row.CommImprove, row.OtherImprove,
			row.OverallImprove, row.TLBMissRatio)
	}
	return b.String()
}
