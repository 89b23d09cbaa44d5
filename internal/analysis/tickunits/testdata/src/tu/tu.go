// Package tu exercises the tickunits analyzer: every crossing between
// simtime.Ticks and the nanosecond world outside the sanctioned
// conversions is a diagnostic; scalar tick arithmetic stays legal.
package tu

import (
	"time"

	"simtime"
)

// durationToTicks reinterprets nanoseconds as ticks.
func durationToTicks(d time.Duration) simtime.Ticks {
	return simtime.Ticks(d) // want `Ticks\(time.Duration\) reinterprets nanoseconds as ticks`
}

// nanosDetour is the same bug through an integer detour.
func nanosDetour(d time.Duration) simtime.Ticks {
	return simtime.Ticks(d.Nanoseconds()) // want `Ticks\(Duration.Nanoseconds\(\)\) treats a unit count as ticks`
}

// microsDetour points at FromMicros specifically.
func microsDetour(d time.Duration) simtime.Ticks {
	return simtime.Ticks(d.Microseconds()) // want `Ticks\(Duration.Microseconds\(\)\) treats a unit count as ticks`
}

// ticksToDuration reinterprets ticks as nanoseconds.
func ticksToDuration(t simtime.Ticks) time.Duration {
	return time.Duration(t) // want `time.Duration\(Ticks\) reinterprets ticks as nanoseconds`
}

// Nanosecond reintroduces the sub-tick constant bug simtime refused to
// ship: TickHz/1e9 truncates to zero.
const Nanosecond simtime.Ticks = simtime.TickHz / 1_000_000_000 // want `Ticks constant Nanosecond divides to zero`

// Millisecond divides to a nonzero value: legal.
const Millisecond simtime.Ticks = simtime.TickHz / 1_000

// scalarConversions are the simulator's normal currency: no diagnostic.
func scalarConversions(n int, bytes int64) simtime.Ticks {
	per := simtime.Ticks(4)
	return simtime.Ticks(n)*per + simtime.Ticks(bytes/64)
}

// sanctioned crossings go through the conversion API: no diagnostic.
func sanctioned(d time.Duration, t simtime.Ticks) (simtime.Ticks, time.Duration) {
	return simtime.FromDuration(d), time.Duration(t.Nanos())
}

// suppressed: an ignore directive keeps a deliberate crossing.
func suppressed(d time.Duration) simtime.Ticks {
	return simtime.Ticks(d) //reprolint:ignore tickunits fixture: deliberate raw crossing
}
