package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTickConversions(t *testing.T) {
	if Microsecond != 512 {
		t.Fatalf("1us = %d ticks, want 512", Microsecond)
	}
	if got := FromMicros(3); got != 1536 {
		t.Fatalf("FromMicros(3) = %d, want 1536", got)
	}
	if got := FromNanos(1953); got != 1000 {
		t.Fatalf("FromNanos(1953) = %d, want 1000", got)
	}
	if got := Ticks(512).Micros(); got != 1.0 {
		t.Fatalf("512 ticks = %vus, want 1", got)
	}
	if got := FromDuration(time.Millisecond); got != Millisecond {
		t.Fatalf("FromDuration(1ms) = %d, want %d", got, Millisecond)
	}
}

// TestNanosecondScaleRounds pins why the package exports no Nanosecond
// constant: TickHz/1e9 truncates to 0 in integer arithmetic, so a
// `duration * Nanosecond` scaling would silently yield zero ticks.
// Sub-tick durations must go through FromNanos, which rounds to nearest.
func TestNanosecondScaleRounds(t *testing.T) {
	if TickHz/1_000_000_000 != 0 {
		t.Fatalf("a 512 MHz tick is coarser than 1ns; integer ns-per-tick = %d, want 0",
			TickHz/1_000_000_000)
	}
	if got := FromNanos(1); got != 1 {
		t.Fatalf("FromNanos(1) = %d, want 1 (round to nearest, not truncate)", got)
	}
	if got := FromNanos(500); got != 256 {
		t.Fatalf("FromNanos(500) = %d, want 256", got)
	}
}

func TestNanosRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		tk := Ticks(n)
		// ns per tick is not integral, so allow 1 tick of rounding.
		back := FromNanos(tk.Nanos())
		d := back - tk
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthTicks(t *testing.T) {
	// 1750 MB/s, 1 MB -> 571.4 us -> ~292571 ticks
	got := BandwidthTicks(1_000_000, 1750)
	ns := 1_000_000_000 / 1750.0
	want := FromNanos(int64(ns))
	if diff := got - want; diff < -2 || diff > 2 {
		t.Fatalf("BandwidthTicks = %d, want ~%d", got, want)
	}
	if BandwidthTicks(0, 100) != 0 {
		t.Fatal("zero bytes should cost zero ticks")
	}
}

func TestBandwidthTicksPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bandwidth")
		}
	}()
	BandwidthTicks(1, 0)
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock must start at 0")
	}
	c.Advance(100)
	c.AdvanceTo(50) // must not rewind
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo(50) rewound clock to %d", c.Now())
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("AdvanceTo(250) = %d", c.Now())
	}
}

func TestClockPanicsOnNegativeAdvance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative advance")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max broken")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		in   Ticks
		want string
	}{
		{100, "100ticks"},
		{512, "1.000us"},
		{Millisecond, "1.000ms"},
		{Second, "1.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// TestFromNanosLargeInputs pins down the overflow fix: the old
// single-product form computed ns*TickHz in one int64 and wrapped for
// any input past ~18 s. The split form must be exact (and obviously
// monotonic) across the whole range.
func TestFromNanosLargeInputs(t *testing.T) {
	cases := []struct {
		ns   int64
		want Ticks
	}{
		{0, 0},
		{1, 1},      // 0.512 ticks rounds up
		{1000, 512}, // 1 us
		{1_000_000_000, Second},
		{18_000_000_000, 18 * Second},      // just below the old wrap point
		{19_000_000_000, 19 * Second},      // wrapped (went negative) before the fix
		{3_600_000_000_000, 3600 * Second}, // an hour
		{1<<63 - 1, 9223372036*Second + Ticks((854775807*int64(TickHz)+500_000_000)/1_000_000_000)},
	}
	for _, c := range cases {
		if got := FromNanos(c.ns); got != c.want {
			t.Errorf("FromNanos(%d) = %d, want %d", c.ns, got, c.want)
		}
		if got := FromNanos(c.ns); got < 0 {
			t.Errorf("FromNanos(%d) = %d went negative", c.ns, got)
		}
	}
	// Sub-second inputs must round identically to the historical form —
	// every modelled cost in the repository funnels through here.
	for _, ns := range []int64{1, 2, 977, 1953, 999_999_999} {
		want := Ticks((ns*TickHz + 500_000_000) / 1_000_000_000)
		if got := FromNanos(ns); got != want {
			t.Errorf("FromNanos(%d) = %d, want legacy rounding %d", ns, got, want)
		}
	}
}

// TestFromNanosPanicsOnNegative: negative durations are configuration
// bugs, caught like Clock's negative advance.
func TestFromNanosPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromNanos(-1) did not panic")
		}
	}()
	FromNanos(-1)
}
