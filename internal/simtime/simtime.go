// Package simtime provides the virtual time base used by the whole
// simulation. The paper reports small-buffer measurements in "time base
// register (TBR) ticks" of an IBM System p; we adopt the same unit
// everywhere: one tick of a 512 MHz time base, i.e. 1 tick = 1.953125 ns.
//
// All latencies, bandwidth conversions and clocks in the repository are
// expressed in Ticks so that results are exactly reproducible and directly
// comparable with the figures in the paper.
package simtime

import (
	"fmt"
	"time"
)

// TickHz is the simulated time-base frequency (512 MHz, as on the IBM
// System p time base register used for Figures 3 and 4 of the paper).
const TickHz = 512_000_000

// Ticks is a duration or point in virtual time, measured in time-base ticks.
type Ticks int64

// Common durations expressed in ticks. There is deliberately no
// Nanosecond constant: at 512 MHz a nanosecond is sub-tick, so the
// integer constant would be 0 and silently drop every duration it
// scales. Use FromNanos, which rounds to nearest, instead.
const (
	Microsecond Ticks = TickHz / 1_000_000 // 512
	Millisecond Ticks = TickHz / 1_000
	Second      Ticks = TickHz
)

// FromNanos converts a nanosecond count into ticks, rounding to nearest.
// Negative counts panic (virtual durations are non-negative, like
// Clock.Advance). The conversion is exact for the whole int64 range: the
// whole-second part scales without multiplication overflow and only the
// sub-second remainder goes through the rounding product, so inputs past
// ~18 s no longer wrap (the old single-product form silently overflowed
// ns·TickHz there).
func FromNanos(ns int64) Ticks {
	if ns < 0 {
		panic("simtime: negative nanosecond count")
	}
	sec, rem := ns/1_000_000_000, ns%1_000_000_000
	return Ticks(sec)*Second + Ticks((rem*TickHz+500_000_000)/1_000_000_000)
}

// FromMicros converts a microsecond count into ticks.
func FromMicros(us int64) Ticks { return Ticks(us) * Microsecond }

// FromDuration converts a time.Duration into ticks.
func FromDuration(d time.Duration) Ticks { return FromNanos(d.Nanoseconds()) }

// Nanos reports the tick count as nanoseconds.
func (t Ticks) Nanos() int64 { return int64(t) * 1_000_000_000 / TickHz }

// Micros reports the tick count as (fractional) microseconds.
func (t Ticks) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports the tick count as seconds.
func (t Ticks) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the tick count with a human-readable suffix.
func (t Ticks) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dticks", int64(t))
	}
}

// Max returns the later of two instants.
func Max(a, b Ticks) Ticks {
	if a > b {
		return a
	}
	return b
}

// BandwidthTicks returns the tick count needed to move n bytes at the given
// rate in MB/s (1 MB = 1e6 bytes, matching the paper's bandwidth plots).
// Rates of zero or below panic: a zero-bandwidth link is a configuration bug.
func BandwidthTicks(n int64, mbPerSec float64) Ticks {
	if mbPerSec <= 0 {
		panic("simtime: non-positive bandwidth")
	}
	ns := float64(n) * 1000.0 / mbPerSec // bytes / (MB/s) -> ns
	return FromNanos(int64(ns + 0.5))
}

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at time zero, ready to use. Clock is not safe for concurrent use;
// each simulated entity (rank, HCA, ...) owns its own clock.
type Clock struct {
	now Ticks
}

// Now reports the current virtual time.
func (c *Clock) Now() Ticks { return c.now }

// Advance moves the clock forward by d ticks and returns the new time.
// Negative advances panic: virtual time never runs backwards.
func (c *Clock) Advance(d Ticks) Ticks {
	if d < 0 {
		panic("simtime: negative clock advance")
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to instant t if t is in the future;
// otherwise it leaves the clock unchanged. It returns the (possibly
// unchanged) current time. This is the primitive used to synchronise a
// receiving rank with an incoming message timestamp.
func (c *Clock) AdvanceTo(t Ticks) Ticks {
	if t > c.now {
		c.now = t
	}
	return c.now
}
