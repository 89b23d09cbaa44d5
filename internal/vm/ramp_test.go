package vm_test

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/vm"
)

// TestWriteRampMatchesNaiveFill checks WriteRamp against the byte(c+i)
// loop it replaces, through small and hugepage mappings: constants inside
// the first period and past it (the raw per-row constants the workloads
// pass: MoE's r*131 + t*17 + it, KV's r + l*31 + t*7), starts on and off
// a frame boundary, and lengths from a byte to a partial frame, whole
// frames and a span crossing a hugepage boundary.
func TestWriteRampMatchesNaiveFill(t *testing.T) {
	consts := []int{0, 1, 7, 255, 256, 3*131 + 127*17 + 2, 15*31 + 215*7 + 3}
	starts := []int{0, 1, 7, 255, 256, machine.SmallPageSize - 1}
	lengths := []int{0, 1, 255, 256, 257, machine.SmallPageSize, 3*machine.SmallPageSize + 5, machine.HugePageSize + 3}
	span := uint64(2 * machine.HugePageSize)
	as := testAS(t)
	small, err := as.MapSmall(span)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := as.MapHuge(span)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, lengths[len(lengths)-1])
	for _, m := range []struct {
		class string
		base  vm.VA
	}{{"small", small}, {"huge", huge + machine.HugePageSize - 2*machine.SmallPageSize}} {
		for _, c := range consts {
			for _, s := range starts {
				for _, n := range lengths {
					va := m.base + vm.VA(s)
					// Dirty the range first, so a byte WriteRamp skips shows.
					if err := as.Write(va, bytes.Repeat([]byte{0xa5}, n)); err != nil {
						t.Fatal(err)
					}
					if err := as.WriteRamp(va, c, n); err != nil {
						t.Fatal(err)
					}
					if err := as.Read(va, got[:n]); err != nil {
						t.Fatal(err)
					}
					for i, b := range got[:n] {
						if b != byte(c+i) {
							t.Fatalf("%s: WriteRamp(+%d, c=%d, n=%d) byte %d = %d, want %d", m.class, s, c, n, i, b, byte(c+i))
						}
					}
				}
			}
		}
	}
}
