package phys

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func testMem(t *testing.T) *Memory {
	t.Helper()
	return NewMemory(machine.Opteron())
}

func TestFrameAllocFree(t *testing.T) {
	m := testMem(t)
	a, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two live frames share a number")
	}
	if err := m.FreeFrame(a); err != nil {
		t.Fatal(err)
	}
	c, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("LIFO reuse expected: got %d want %d", c, a)
	}
	st := m.Stats()
	if st.SmallAllocated != 2 {
		t.Fatalf("SmallAllocated = %d, want 2", st.SmallAllocated)
	}
}

func TestHugeAllocContiguity(t *testing.T) {
	m := testMem(t)
	f, err := m.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if (uint64(f)*machine.SmallPageSize)%machine.HugePageSize != 0 {
		t.Fatalf("hugepage frame %d not 2MiB-aligned", f)
	}
	g, err := m.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if g == f {
		t.Fatal("same hugepage handed out twice")
	}
	if err := m.FreeHuge(f); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeHuge(f); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: got %v, want ErrDoubleFree", err)
	}
}

func TestHugePoolExhaustion(t *testing.T) {
	m := testMem(t)
	total := m.HugeTotal()
	for i := 0; i < total; i++ {
		if _, err := m.AllocHuge(); err != nil {
			t.Fatalf("alloc %d/%d failed: %v", i, total, err)
		}
	}
	if _, err := m.AllocHuge(); !errors.Is(err, ErrOutOfHugepages) {
		t.Fatalf("got %v, want ErrOutOfHugepages", err)
	}
	if m.Stats().HugeFailures != 1 {
		t.Fatal("failure not counted")
	}
}

func TestReserveBlocksAllocation(t *testing.T) {
	m := testMem(t)
	avail := m.HugeAvailable()
	if err := m.Reserve(avail); err != nil { // hold everything back
		t.Fatal(err)
	}
	if _, err := m.AllocHuge(); !errors.Is(err, ErrReserveHeld) {
		t.Fatalf("got %v, want ErrReserveHeld", err)
	}
	if err := m.Unreserve(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocHuge(); err != nil {
		t.Fatalf("one page above reserve should allocate: %v", err)
	}
	// Now free == reserve again; next alloc must fail.
	if _, err := m.AllocHuge(); !errors.Is(err, ErrReserveHeld) {
		t.Fatalf("got %v, want ErrReserveHeld", err)
	}
}

func TestSmallFramesNeverOverlapHugeZone(t *testing.T) {
	m := testMem(t)
	h, err := m.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f >= h && f < h+machine.SmallPerHuge {
			t.Fatalf("small frame %d landed inside hugepage at %d", f, h)
		}
	}
}

func TestPhysReadWrite(t *testing.T) {
	m := testMem(t)
	// Cross a frame boundary deliberately.
	pa := Addr(machine.SmallPageSize - 3)
	in := []byte{1, 2, 3, 4, 5, 6, 7}
	m.WritePhys(pa, in)
	out := make([]byte, len(in))
	m.ReadPhys(pa, out)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("byte %d: got %d want %d", i, out[i], in[i])
		}
	}
	// Never-written memory reads as zero.
	z := make([]byte, 16)
	m.ReadPhys(1<<28, z)
	for _, b := range z {
		if b != 0 {
			t.Fatal("fresh memory must read zero")
		}
	}
}

func TestCopyPhys(t *testing.T) {
	m := testMem(t)
	src, dst := Addr(100), Addr(2*machine.SmallPageSize-10)
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i * 7)
	}
	m.WritePhys(src, in)
	m.CopyPhys(dst, src, len(in))
	out := make([]byte, len(in))
	m.ReadPhys(dst, out)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("CopyPhys corrupted byte %d", i)
		}
	}

	// A hugepage-sized copy between unaligned addresses, crossing frame
	// boundaries at different offsets on the two sides.
	big := make([]byte, machine.HugePageSize)
	for i := range big {
		big[i] = byte(i*131 + i>>12 + 1)
	}
	src, dst = Addr(7*machine.SmallPageSize+123), Addr(1<<28+4000)
	m.WritePhys(src, big)
	m.CopyPhys(dst, src, len(big))
	out = make([]byte, len(big))
	m.ReadPhys(dst, out)
	if !bytes.Equal(out, big) {
		t.Fatal("hugepage-sized CopyPhys corrupted the payload")
	}

	// A never-written source arrives as zeros over stale destination
	// bytes, with the stale bytes around the target left alone.
	m.CopyPhys(dst+10, Addr(1<<29), 3*machine.SmallPageSize)
	m.ReadPhys(dst, out)
	want := append([]byte(nil), big...)
	clear(want[10 : 10+3*machine.SmallPageSize])
	if !bytes.Equal(out, want) {
		t.Fatal("copy of never-written memory must arrive as zeros")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a negative copy length must panic")
		}
	}()
	m.CopyPhys(dst, src, -1)
}

// TestCopyBetweenMemories moves bytes from one node's memory to
// another's: the destination sees them, the source is untouched.
func TestCopyBetweenMemories(t *testing.T) {
	a, b := testMem(t), testMem(t)
	in := make([]byte, 3*machine.SmallPageSize+5)
	for i := range in {
		in[i] = byte(i*7 + 3)
	}
	a.WritePhys(1000, in)
	Copy(b, 5*machine.SmallPageSize-1, a, 1000, len(in))
	out := make([]byte, len(in))
	b.ReadPhys(5*machine.SmallPageSize-1, out)
	if !bytes.Equal(out, in) {
		t.Fatal("cross-memory copy corrupted the payload")
	}
	a.ReadPhys(5*machine.SmallPageSize-1, out)
	if !bytes.Equal(out, make([]byte, len(in))) {
		t.Fatal("cross-memory copy wrote into the source memory")
	}
}

// TestFrameStoreZoneEdges writes, reads back and copies the first and
// last frame of each zone, the two frames on either side of the gap
// between the small-frame and hugepage tables included.
func TestFrameStoreZoneEdges(t *testing.T) {
	a, b := testMem(t), testMem(t)
	edges := []Frame{0, a.hugeBase - 1, a.hugeBase, Frame(a.totalFrames - 1)}
	page := func(k int) []byte {
		p := make([]byte, machine.SmallPageSize)
		for i := range p {
			p[i] = byte(i*7 + k*61 + 1)
		}
		return p
	}
	pa := func(f Frame) Addr { return Addr(f) * machine.SmallPageSize }
	for k, f := range edges {
		a.WritePhys(pa(f), page(k))
	}
	out := make([]byte, machine.SmallPageSize)
	for k, f := range edges {
		a.ReadPhys(pa(f), out)
		if !bytes.Equal(out, page(k)) {
			t.Fatalf("frame %d does not read back what was written", f)
		}
	}
	// Copy each edge frame of a to the next edge frame of b.
	for k, f := range edges {
		Copy(b, pa(edges[(k+1)%len(edges)]), a, pa(f), machine.SmallPageSize)
	}
	for k, f := range edges {
		b.ReadPhys(pa(edges[(k+1)%len(edges)]), out)
		if !bytes.Equal(out, page(k)) {
			t.Fatalf("copy of frame %d arrived corrupted", f)
		}
	}
}

// TestReadUnwrittenFrameDoesNotAllocate pins the lazy store: reading a
// never-written frame returns zeros without allocating, whether its
// chunk exists or not.
func TestReadUnwrittenFrameDoesNotAllocate(t *testing.T) {
	m := testMem(t)
	m.WritePhys(0, []byte{1})
	m.WritePhys(Addr(m.hugeBase)*machine.SmallPageSize, []byte{1})
	buf := make([]byte, machine.SmallPageSize)
	for _, f := range []Frame{1, 1 << 16, m.hugeBase + 1, Frame(m.totalFrames - 1)} {
		pa := Addr(f) * machine.SmallPageSize
		if n := testing.AllocsPerRun(100, func() { m.ReadPhys(pa, buf) }); n != 0 {
			t.Errorf("reading never-written frame %d made %v allocations", f, n)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Errorf("never-written frame %d does not read as zeros", f)
		}
	}
}

// TestCopyUnbackedStaysUnbacked copies a never-written source into a
// never-written destination: the destination stays unbacked.
func TestCopyUnbackedStaysUnbacked(t *testing.T) {
	a, b := testMem(t), testMem(t)
	b.WritePhys(0, []byte{1}) // frame 1 shares frame 0's chunk
	for _, dst := range []Frame{1, 1 << 16, b.hugeBase + 3} {
		Copy(b, Addr(dst)*machine.SmallPageSize, a, 5*machine.SmallPageSize, machine.SmallPageSize)
		if b.frame(dst) != nil {
			t.Errorf("copying zeros backed destination frame %d", dst)
		}
	}
}

// Property: any interleaving of allocs and frees never hands out a frame
// that is still live, and never exceeds the hugepage zone base.
func TestQuickFrameUniqueness(t *testing.T) {
	m := testMem(t)
	live := map[Frame]bool{}
	var order []Frame
	f := func(op uint8) bool {
		if op%3 == 0 && len(order) > 0 {
			// free the oldest live frame
			fr := order[0]
			order = order[1:]
			delete(live, fr)
			return m.FreeFrame(fr) == nil
		}
		fr, err := m.AllocFrame()
		if err != nil {
			return false
		}
		if live[fr] {
			return false // double-handout
		}
		live[fr] = true
		order = append(order, fr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestScramble(t *testing.T) {
	m := testMem(t)
	m.Scramble(1024)
	if got := m.Stats().SmallAllocated; got != 0 {
		t.Fatalf("Scramble leaked %d frames", got)
	}
	// After scrambling, two consecutive allocations should usually not be
	// physically adjacent (the point of the warm-up).
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	if b == a+1 {
		t.Fatalf("post-scramble frames are contiguous (%d, %d)", a, b)
	}
}

// scrambleFrameByFrame is the reference warm-up Scramble must reproduce:
// n locked AllocFrame calls (stopping at the first failure), then a
// FreeFrame for every even-indexed frame, then every odd-indexed one.
func scrambleFrameByFrame(m *Memory, n int) {
	frames := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			break
		}
		frames = append(frames, f)
	}
	for i := 0; i < len(frames); i += 2 {
		_ = m.FreeFrame(frames[i])
	}
	for i := 1; i < len(frames); i += 2 {
		_ = m.FreeFrame(frames[i])
	}
}

func TestScrambleMatchesFrameByFrame(t *testing.T) {
	// tiny has a 64-frame small zone (1 MiB of memory, no hugepages), so
	// a warm-up deeper than that truncates.
	tiny := machine.Opteron()
	tiny.Mem.TotalBytes = 64 * machine.SmallPageSize
	tiny.Mem.HugePool = 0

	cases := []struct {
		name string
		mach *machine.Machine
		// prep runs on both pools before the warm-up.
		prep func(m *Memory)
		n    int
		// after runs on both pools after the warm-up; warm is the pool's
		// own warm-up (Scramble on one, the reference on the other).
		after func(m *Memory, warm func(n int))
	}{
		{name: "fresh", mach: machine.Opteron(), n: 4096},
		{name: "odd-depth", mach: machine.Opteron(), n: 1023},
		{
			// Ten frames live, five freed out of order: the warm-up pops
			// the free list before it touches the bump pointer.
			name: "nonempty-free-list", mach: machine.Opteron(), n: 4096,
			prep: func(m *Memory) {
				var fs []Frame
				for i := 0; i < 10; i++ {
					f, err := m.AllocFrame()
					if err != nil {
						t.Fatal(err)
					}
					fs = append(fs, f)
				}
				for _, i := range []int{7, 2, 9, 0, 4} {
					if err := m.FreeFrame(fs[i]); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// The free list is deeper than the warm-up.
			name: "shallow-warm-up", mach: machine.Opteron(), n: 3,
			prep: func(m *Memory) {
				var fs []Frame
				for i := 0; i < 8; i++ {
					f, _ := m.AllocFrame()
					fs = append(fs, f)
				}
				for _, f := range fs {
					_ = m.FreeFrame(f)
				}
			},
		},
		{name: "truncated", mach: tiny, n: 200},
		{
			name: "truncated-after-use", mach: tiny, n: 200,
			prep: func(m *Memory) {
				for i := 0; i < 5; i++ {
					_, _ = m.AllocFrame()
				}
				_ = m.FreeFrame(3)
			},
		},
		{
			// Frees land on top of the run and must come back first,
			// last freed first, before the run resumes.
			name: "frees-interleaved", mach: machine.Opteron(), n: 4096,
			after: func(m *Memory, _ func(int)) {
				var fs []Frame
				for i := 0; i < 40; i++ {
					f, err := m.AllocFrame()
					if err != nil {
						t.Fatal(err)
					}
					fs = append(fs, f)
					if i%3 == 2 {
						_ = m.FreeFrame(fs[i-1])
					}
				}
				for _, i := range []int{30, 4, 17, 39} {
					_ = m.FreeFrame(fs[i])
				}
				for i := 0; i < 7; i++ {
					_, _ = m.AllocFrame()
				}
			},
		},
		{
			// A second warm-up over a partly consumed run with frees on
			// top: the run must be spilled under the freed frames.
			name: "rescramble-partly-consumed", mach: machine.Opteron(), n: 1000,
			after: func(m *Memory, warm func(int)) {
				var fs []Frame
				for i := 0; i < 300; i++ {
					f, _ := m.AllocFrame()
					fs = append(fs, f)
				}
				for _, f := range fs[100:110] {
					_ = m.FreeFrame(f)
				}
				warm(500)
			},
		},
		{
			// A second warm-up over a partly consumed run, free list
			// empty, deeper than what is left of the run.
			name: "rescramble-run-only", mach: machine.Opteron(), n: 1000,
			after: func(m *Memory, warm func(int)) {
				for i := 0; i < 401; i++ {
					_, _ = m.AllocFrame()
				}
				warm(2000)
			},
		},
		{
			// A second warm-up once the run is used up: a fresh run
			// starting above the live frames.
			name: "rescramble-consumed-run", mach: machine.Opteron(), n: 64,
			after: func(m *Memory, warm func(int)) {
				for i := 0; i < 64+9; i++ {
					_, _ = m.AllocFrame()
				}
				warm(33)
			},
		},
		{
			// The run ends the small zone: after it, allocation fails.
			name: "run-exhausts-zone", mach: tiny, n: 64,
			after: func(m *Memory, warm func(int)) {
				for i := 0; i < 20; i++ {
					_, _ = m.AllocFrame()
				}
				_ = m.FreeFrame(63)
				warm(10)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := NewMemory(c.mach), NewMemory(c.mach)
			if c.prep != nil {
				c.prep(got)
				c.prep(want)
			}
			got.Scramble(c.n)
			scrambleFrameByFrame(want, c.n)
			if c.after != nil {
				c.after(got, got.Scramble)
				c.after(want, func(n int) { scrambleFrameByFrame(want, n) })
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("Stats after warm-up = %+v, want %+v", g, w)
			}
			for i := 0; i < 4096; i++ {
				gf, gerr := got.AllocFrame()
				wf, werr := want.AllocFrame()
				if gf != wf || !errors.Is(gerr, werr) {
					t.Fatalf("allocation %d = (%d, %v), want (%d, %v)", i, gf, gerr, wf, werr)
				}
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("Stats after 4096 allocations = %+v, want %+v", g, w)
			}
		})
	}
}
