package vm_test

import (
	"bytes"
	"testing"

	"repro/internal/vm"
)

// TestRampViewMatchesNaiveFill checks every view against the byte(c+i)
// loop it replaces, for offsets inside the first period and for the raw
// per-row constants the workloads pass (MoE's r*131 + t*17 + it, KV's
// r + l*31 + t*7).
func TestRampViewMatchesNaiveFill(t *testing.T) {
	offsets := []int{0, 1, 7, 255, 256, 3*131 + 127*17 + 2, 15*31 + 215*7 + 3}
	lengths := []int{0, 1, 255, 256, 257, 4096, 4<<20 + 3}
	pat := vm.Ramp(lengths[len(lengths)-1] + 255)
	for _, n := range lengths {
		for _, c := range offsets {
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(c + i)
			}
			if got := vm.RampView(pat, c, n); !bytes.Equal(got, want) {
				t.Errorf("RampView(c=%d, n=%d) differs from the byte(c+i) loop", c, n)
			}
		}
		if got, want := vm.Ramp(n), vm.RampView(pat, 0, n); !bytes.Equal(got, want) {
			t.Errorf("Ramp(%d) differs from its offset-0 view", n)
		}
	}
}
