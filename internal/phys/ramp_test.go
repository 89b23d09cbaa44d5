package phys

import (
	"bytes"
	"testing"

	"repro/internal/machine"
)

const page = machine.SmallPageSize

// wantRamp is what every shared ramp frame must hold.
var wantRamp = func() (r [256]frameData) {
	for c := range r {
		for i := range r[c] {
			r[c][i] = byte(c + i)
		}
	}
	return r
}()

// checkRampFrames fails the test if any shared frame has been written.
func checkRampFrames(t testing.TB) {
	t.Helper()
	rampFrame(0)
	if rampFrames != wantRamp {
		t.Fatal("a shared ramp frame was written")
	}
}

// ramp is the naive byte(c+i) fill WriteRamp replaces.
func ramp(c, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(c + i)
	}
	return p
}

// TestWriteRampMatchesNaiveFill writes ramps at frame offsets 0, 1, 7,
// 255 and 256 with constants inside and past the first period, over
// partial frames, whole frames and runs of frames in both zones, and
// reads each back against the naive fill. Every frame the write covers
// whole must share the ramp frame for its constant; a partial one must
// be private.
func TestWriteRampMatchesNaiveFill(t *testing.T) {
	m := testMem(t)
	got := make([]byte, 5*page)
	for _, zone := range []Frame{16, m.hugeBase + 16} {
		for _, off := range []int{0, 1, 7, 255, 256} {
			for _, c := range []int{0, 1, 255, 256, 300, 3*131 + 127*17 + 2} {
				for _, n := range []int{0, 1, 200, page - off, page, 3*page + 5} {
					pa := Addr(zone)*page + Addr(off)
					m.WritePhys(pa, bytes.Repeat([]byte{0xa5}, n))
					m.WriteRamp(pa, c, n)
					m.ReadPhys(pa, got[:n])
					if !bytes.Equal(got[:n], ramp(c, n)) {
						t.Fatalf("frame %d: WriteRamp(+%d, c=%d, n=%d) differs from the byte(c+i) fill", zone, off, c, n)
					}
					for k := 0; k < n; {
						f := Frame((pa + Addr(k)) / page)
						fo := int(pa+Addr(k)) % page
						w := min(n-k, page-fo)
						whole := w == page
						if shared := m.frame(f) == &rampFrames[(c+k)&255]; shared != whole {
							t.Fatalf("WriteRamp(+%d, c=%d, n=%d): frame %d shares a ramp frame = %v, want %v", off, c, n, f, shared, whole)
						}
						k += w
					}
				}
			}
		}
	}
	checkRampFrames(t)
}

// TestSharedFramesNeverWritten writes into, copies over and zeroes frames
// that share a ramp frame, in one memory and its peer: each write lands
// in a private clone, the peer keeps reading the ramp, and no shared
// frame changes.
func TestSharedFramesNeverWritten(t *testing.T) {
	a, b := testMem(t), testMem(t)
	const c = 77
	for _, m := range []*Memory{a, b} {
		m.WriteRamp(0, c, 4*page)
	}
	a.WritePhys(5, []byte{0xff})        // a byte into frame 0
	Copy(a, page+9, a, 3*page+2, 100)   // a partial copy onto frame 1
	Copy(a, 2*page, b, 40*page, page)   // zeros from an unbacked frame onto frame 2
	Copy(a, 3*page, b, 0, page)         // a whole shared frame onto frame 3
	a.WritePhys(4*page-1, []byte{0xee}) // then a byte into it
	checkRampFrames(t)

	want := ramp(c, 4*page)
	want[5] = 0xff
	copy(want[page+9:], want[3*page+2:3*page+102])
	clear(want[2*page : 3*page])
	want[4*page-1] = 0xee
	got := make([]byte, 4*page)
	a.ReadPhys(0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("writes over shared frames did not read back")
	}
	b.ReadPhys(0, got)
	if !bytes.Equal(got, ramp(c, 4*page)) {
		t.Fatal("writes through one memory reached its peer's shared frames")
	}
}

// TestCopySharesOnlyRampFrames: a whole-frame copy of a shared ramp
// frame passes its pointer along, while a private frame, even one whose
// bytes are a ramp, is copied into a frame of the destination's own.
func TestCopySharesOnlyRampFrames(t *testing.T) {
	a, b := testMem(t), testMem(t)
	a.WriteRamp(0, 9, page)
	a.WritePhys(page, ramp(9, page))
	Copy(b, 0, a, 0, page)
	Copy(b, page, a, page, page)
	if b.frame(0) != a.frame(0) {
		t.Error("a whole shared ramp frame was copied by value")
	}
	if b.frame(1) == a.frame(1) {
		t.Fatal("a private frame was shared by the copy")
	}
	b.WritePhys(page, []byte{0})
	got := make([]byte, page)
	a.ReadPhys(page, got)
	if !bytes.Equal(got, ramp(9, page)) {
		t.Fatal("a write to the copy changed the source frame")
	}
	checkRampFrames(t)
}

// TestWriteRampWholeFramesDoNotAllocate: once the table reaches a frame,
// a ramp write covering it whole allocates nothing, and a copy of it to
// a second memory allocates nothing either.
func TestWriteRampWholeFramesDoNotAllocate(t *testing.T) {
	a, b := testMem(t), testMem(t)
	a.WriteRamp(0, 0, 8*page)
	Copy(b, 0, a, 0, 8*page)
	if n := testing.AllocsPerRun(20, func() {
		a.WriteRamp(0, 3, 8*page)
		Copy(b, 0, a, 0, 8*page)
	}); n != 0 {
		t.Fatalf("whole-frame ramp write and copy made %v allocations", n)
	}
}

// TestReleaseDropsContents: Release forgets every frame's contents,
// private and shared alike, reports the private bytes it dropped, leaves
// the shared ramp frames intact, and the memory stays writable
// afterwards.
func TestReleaseDropsContents(t *testing.T) {
	m := NewMemory(machine.Opteron())
	m.WriteRamp(0, 5, 2*page)            // two shared frames
	m.WritePhys(2*page+3, []byte("own")) // a private one
	m.WriteRamp(3*page+1, 9, 10)         // a partial ramp: private too
	hugePA := Addr(m.hugeBase) * page
	m.WritePhys(hugePA, []byte("huge")) // a private one in the hugepage zone
	if got := m.Release(); got != 3*page {
		t.Fatalf("Release dropped %d private bytes, want %d", got, 3*page)
	}
	got := make([]byte, 3*page)
	m.ReadPhys(0, got)
	if !bytes.Equal(got, make([]byte, 3*page)) {
		t.Fatal("released memory still reads its old contents")
	}
	if m.frame(0) != nil || m.frame(2) != nil || m.frame(m.hugeBase) != nil {
		t.Fatal("released memory still holds frames")
	}
	checkRampFrames(t)
	m.WritePhys(page, []byte("again"))
	m.ReadPhys(page, got[:5])
	if string(got[:5]) != "again" {
		t.Fatalf("write after Release reads back %q", got[:5])
	}
}
