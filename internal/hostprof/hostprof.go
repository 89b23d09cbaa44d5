// Package hostprof gives the command-line tools their -cpuprofile and
// -memprofile flags: profiles of the simulator process itself, for
// finding where host time and allocations go. They measure the host,
// never the simulated cluster, and change no output.
package hostprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths of one command line.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile (allocations included) of the run to `file` when it ends")
	return f
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends the run's profiling: it stops the CPU profile and
// writes the heap profile, if one was asked for. Call it once, after
// the work to profile and before the process exits.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if f.mem == "" {
			return nil
		}
		mem, err := os.Create(f.mem)
		if err != nil {
			return err
		}
		runtime.GC() // the heap profile reports the heap as of the last GC
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return mem.Close()
	}, nil
}
