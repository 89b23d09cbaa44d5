// Package host is a fixture proving exempted packages may use raw
// concurrency freely: the test registers it in ExemptPkgs, so none of
// these lines may produce a diagnostic.
package host

import (
	"sync"
	"sync/atomic"
)

var registry struct {
	mu   sync.Mutex
	runs atomic.Int64
}

func fanOut(jobs []func()) {
	var wg sync.WaitGroup
	results := make(chan struct{}, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
			results <- struct{}{}
		}(j)
	}
	wg.Wait()
	select {
	case <-results:
	default:
	}
}
