// Package a exercises the determinism analyzer: wall clocks and global
// rand are flagged; seeded generators and time arithmetic are not.
package a

import (
	crand "crypto/rand" // want `crypto/rand is non-reproducible entropy`
	"math/rand"
	"os"
	"time"
)

// clock demonstrates the banned value use, not just calls.
var clock func() time.Time = time.Now // want `time\.Now reads the wall clock`

func clocks() time.Duration {
	start := time.Now()          // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep`
	return time.Since(start)     // want `time\.Since`
}

func entropy() int {
	n := rand.Intn(8) // want `global rand\.Intn draws from the shared unseeded source`
	rand.Seed(1)      // want `global rand\.Seed`
	buf := make([]byte, 4)
	_, _ = crand.Read(buf)
	return n + os.Getpid() // want `os\.Getpid differs run to run`
}

func seeded() int64 {
	rng := rand.New(rand.NewSource(7))
	const budget = 3 * time.Second // durations are arithmetic, not clock reads
	_ = budget
	return rng.Int63()
}

// reseeded takes a generator by its type, which draws nothing from the
// global source; re-seeding it is a method call, not rand.Seed.
func reseeded(rng *rand.Rand, seed int64) int {
	rng.Seed(seed)
	return rng.Intn(8)
}

func suppressed() time.Time {
	return time.Now() //reprolint:ignore fixture proving the escape hatch
}
