// Package simtime is a fixture stub of the module's virtual-time
// package: the tickunits analyzer matches the Ticks type by name and
// package base, and exempts this package (it owns the conversions, so
// FromDuration's own body is legal).
package simtime

import "time"

const TickHz = 512_000_000

type Ticks int64

const (
	Microsecond Ticks = TickHz / 1_000_000
	Second      Ticks = TickHz
)

func FromNanos(ns int64) Ticks {
	sec, rem := ns/1_000_000_000, ns%1_000_000_000
	return Ticks(sec)*Second + Ticks((rem*TickHz+500_000_000)/1_000_000_000)
}

func FromDuration(d time.Duration) Ticks { return FromNanos(d.Nanoseconds()) }

func (t Ticks) Nanos() int64 { return int64(t) * 1_000_000_000 / TickHz }
