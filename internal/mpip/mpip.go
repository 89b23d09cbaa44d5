// Package mpip is the profiling layer of the reproduction, standing in
// for the mpiP library the paper uses: "we obtained our measurements by
// utilizing the mpip library, which is able to instrument MPI functions
// ... Thus, we are able to distinguish between communication and
// computation time." Every MPI call records its elapsed virtual time by
// call name; compute phases record separately; Figure 6's communication /
// other / overall split is read straight off this profile.
package mpip

import (
	"sort"
	"sync"

	"repro/internal/simtime"
)

// Profile accumulates per-call-site communication time for one rank.
// It is safe for concurrent use (Sendrecv runs its send half on a
// second goroutine).
type Profile struct {
	mu      sync.Mutex
	calls   map[string]*CallStats
	compute simtime.Ticks
	alloc   simtime.Ticks
}

// CallStats is the aggregate for one MPI entry point.
type CallStats struct {
	Name  string
	Count int64
	Time  simtime.Ticks
}

// New creates an empty profile.
func New() *Profile {
	return &Profile{calls: make(map[string]*CallStats)}
}

// AddCall records one MPI call's elapsed time.
func (p *Profile) AddCall(name string, d simtime.Ticks) {
	if p == nil {
		return
	}
	p.mu.Lock()
	cs := p.calls[name]
	if cs == nil {
		cs = &CallStats{Name: name}
		p.calls[name] = cs
	}
	cs.Count++
	cs.Time += d
	p.mu.Unlock()
}

// AddCompute records application (non-MPI) time.
func (p *Profile) AddCompute(d simtime.Ticks) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.compute += d
	p.mu.Unlock()
}

// AddAlloc records allocator time (a sub-category of compute, reported
// separately because E7 cares about it).
func (p *Profile) AddAlloc(d simtime.Ticks) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.compute += d
	p.alloc += d
	p.mu.Unlock()
}

// CommTime is total time inside MPI calls.
func (p *Profile) CommTime() simtime.Ticks {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t simtime.Ticks
	for _, cs := range p.calls {
		t += cs.Time
	}
	return t
}

// ComputeTime is total recorded application time.
func (p *Profile) ComputeTime() simtime.Ticks {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compute
}

// AllocTime is total recorded allocator time.
func (p *Profile) AllocTime() simtime.Ticks {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alloc
}

// Calls returns per-call aggregates sorted by descending time.
func (p *Profile) Calls() []CallStats {
	p.mu.Lock()
	out := make([]CallStats, 0, len(p.calls))
	for _, cs := range p.calls {
		out = append(out, *cs)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Merge folds another profile into this one (whole-job aggregation).
func (p *Profile) Merge(q *Profile) {
	q.mu.Lock()
	calls := make([]CallStats, 0, len(q.calls))
	for _, cs := range q.calls {
		calls = append(calls, *cs)
	}
	compute, alloc := q.compute, q.alloc
	q.mu.Unlock()
	// The fold below is commutative, but merging in a fixed order keeps
	// p.calls' insertion history — and anything derived from it —
	// independent of map iteration order.
	sort.Slice(calls, func(i, j int) bool { return calls[i].Name < calls[j].Name })

	p.mu.Lock()
	for _, cs := range calls {
		mine := p.calls[cs.Name]
		if mine == nil {
			mine = &CallStats{Name: cs.Name}
			p.calls[cs.Name] = mine
		}
		mine.Count += cs.Count
		mine.Time += cs.Time
	}
	p.compute += compute
	p.alloc += alloc
	p.mu.Unlock()
}
