// Package clock is a fixture helper package that hands out the wall
// clock. It has no sink of its own; the flow it starts completes in
// package tf, so the timeflow analyzer only sees it when the whole
// fixture tree is its module.
package clock

import "time"

func Now() time.Time {
	return time.Now()
}
