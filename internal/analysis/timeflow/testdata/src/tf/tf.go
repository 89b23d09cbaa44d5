// Package tf exercises the timeflow analyzer: wall-clock and unseeded
// entropy values must not reach trace records, no matter how many
// helpers launder them on the way.
package tf

import (
	"math/rand"
	"time"

	"clock"
	"trace"
)

// direct: the wall clock lands in a span in one step.
func direct(c trace.Ctx) {
	c.Span("elapsed", time.Now().UnixNano()) // want `time.Now wall clock .* reaches trace.Span trace record`
}

// stamp launders the clock through a helper return; the flow must
// survive the hop.
func stamp() int64 {
	return time.Now().UnixNano()
}

func viaHelper(c trace.Ctx) {
	c.Event("stamp", stamp()) // want `time.Now wall clock .* reaches trace.Event trace record`
}

// viaPackage: the helper returning the clock lives in another package;
// the flow crosses the package boundary.
func viaPackage(c trace.Ctx) {
	c.Event("clock", clock.Now().UnixNano()) // want `time.Now wall clock .* reaches trace.Event trace record`
}

// record sinks its parameter; the diagnostic lands on the sink call
// inside the helper when a caller hands it a tainted value.
func record(c trace.Ctx, v int64) {
	c.Span("value", v) // want `time.Now wall clock .* reaches trace.Span trace record`
}

func viaParam(c trace.Ctx) {
	record(c, time.Now().UnixNano())
}

// entropy: the global rand source is just as host-dependent as the
// clock.
func entropy(c trace.Ctx) {
	c.Event("jitter", rand.Int63()) // want `unseeded rand.Int63 .* reaches trace.Event trace record`
}

// seeded generators are reproducible: no diagnostic.
func seeded(c trace.Ctx) {
	r := rand.New(rand.NewSource(7))
	c.Event("draw", r.Int63())
}

// suppressed: the ignore directive on the source line kills the flow at
// birth, mirroring internal/sweep's sanctioned wall-throughput metrics.
func suppressed(c trace.Ctx) {
	t := time.Now().UnixNano() //reprolint:ignore timeflow fixture: sanctioned wall metric
	c.Span("wall", t)
}

// clean: constants never taint.
func clean(c trace.Ctx) {
	c.Span("fixed", 42)
}
