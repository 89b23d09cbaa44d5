package verbs_test

import (
	"testing"

	"repro/internal/hca"
	"repro/internal/machine"
	"repro/internal/node/nodetest"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// The tracing satellite's zero-cost contract: when no -trace flag armed
// a collector, every T-suffixed hot-path variant must behave exactly
// like its untraced twin — in particular it must not allocate on behalf
// of the disabled tracer (arg slices, contexts, closures). These guards
// pin that with testing.AllocsPerRun: the traced call with a zero Ctx
// allocates exactly as much as the untraced call.

// regAllocs measures steady-state allocations of one register/deregister
// round trip through f.
func regAllocs(t *testing.T, c *verbs.Context, f func() (*verbs.MR, error)) float64 {
	t.Helper()
	return testing.AllocsPerRun(50, func() {
		mr, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DeregMR(mr); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDisabledTraceAddsNoAllocsOnRegMR(t *testing.T) {
	c := ctx(t, machine.Opteron())
	va, err := c.AS.MapSmall(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	base := regAllocs(t, c, func() (*verbs.MR, error) {
		mr, _, err := c.RegMR(va, 256<<10)
		return mr, err
	})
	traced := regAllocs(t, c, func() (*verbs.MR, error) {
		mr, _, err := c.RegMRT(trace.Ctx{}, va, 256<<10)
		return mr, err
	})
	if traced > base {
		t.Fatalf("RegMRT with disabled tracing allocates %.1f/op, untraced RegMR %.1f/op", traced, base)
	}
}

func TestDisabledTraceAddsNoAllocsOnPostPoll(t *testing.T) {
	c := ctx(t, machine.Opteron())
	va, err := c.AS.MapSmall(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	mr, _, err := c.RegMR(va, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	sgl := []hca.SGE{{Addr: va, Length: 4096, LKey: mr.LKey}}
	allocs := testing.AllocsPerRun(100, func() {
		c.PostSend(trace.Ctx{}, sgl)
		c.PollCQ(trace.Ctx{})
	})
	if allocs != 0 {
		t.Fatalf("post/poll with disabled tracing allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkRegMRUntraced / BenchmarkRegMRDisabledTrace exist so a perf
// regression on the hot path shows up as a benchmark delta, not only as
// the alloc-count guard above.
func BenchmarkRegMRUntraced(b *testing.B) {
	c := benchCtx(b)
	va, err := c.AS.MapSmall(256 << 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, _, err := c.RegMR(va, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.DeregMR(mr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegMRDisabledTrace(b *testing.B) {
	c := benchCtx(b)
	va, err := c.AS.MapSmall(256 << 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr, _, err := c.RegMRT(trace.Ctx{}, va, 256<<10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.DeregMR(mr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPostSendDisabledTrace(b *testing.B) {
	c := benchCtx(b)
	va, err := c.AS.MapSmall(64 << 10)
	if err != nil {
		b.Fatal(err)
	}
	mr, _, err := c.RegMR(va, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	sgl := []hca.SGE{{Addr: va, Length: 4096, LKey: mr.LKey}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PostSend(trace.Ctx{}, sgl)
		c.PollCQ(trace.Ctx{})
	}
}

func benchCtx(b *testing.B) *verbs.Context {
	b.Helper()
	return nodetest.New(b, machine.Opteron()).Verbs
}
