// Package sim exercises the schedonly analyzer: raw goroutines,
// channels, select, sync.WaitGroup, mutexes and sync/atomic are flagged
// in simulation code.
package sim

import (
	"sync"
	"sync/atomic"
)

// mailbox demonstrates that channel types are flagged wherever they
// appear, not just in make calls.
var mailbox chan int // want `raw channel in simulation code`

func work() {}

func spawn() {
	go work() // want `go statement spawns a goroutine outside internal/sched`
}

func pipes() {
	ch := make(chan string, 4) // want `raw channel in simulation code`
	_ = ch
	var wg sync.WaitGroup // want `sync\.WaitGroup synchronises raw goroutines`
	wg.Add(1)
	wg.Done()
	wg.Wait()
}

func pick(a chan int) int { // want `raw channel in simulation code`
	select { // want `select races goroutines`
	case v := <-a:
		return v
	default:
		return 0
	}
}

func guarded() *sync.Mutex { // want `sync\.Mutex in simulation code guards nothing`
	return new(sync.Mutex) // want `sync\.Mutex in simulation code guards nothing`
}

type table struct {
	mu   sync.RWMutex // want `sync\.RWMutex in simulation code guards nothing`
	hits atomic.Int64 // want `sync/atomic in simulation code guards nothing`
}

func bump(n *int64) {
	atomic.AddInt64(n, 1) // want `sync/atomic in simulation code guards nothing`
}

type shared struct {
	mu sync.Mutex //reprolint:ignore schedonly: fixture proving a justified lock may stay
}

func suppressed() {
	done := make(chan struct{}) //reprolint:ignore fixture proving the escape hatch
	close(done)
}
