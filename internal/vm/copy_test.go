package vm_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/phys"
	"repro/internal/vm"
)

const page = machine.SmallPageSize

// copySpace maps one small-page and one hugepage region of two
// hugepages each. The small pages are physically scattered, as on a
// long-running node, so a copy that crosses a page boundary in one
// physical run shows. Each region holds private random bytes in its
// first hugepage's first half, ramp bytes in its second half, and
// never-written memory from its second hugepage on.
func copySpace(t *testing.T) (as *vm.AddressSpace, small, huge vm.VA) {
	t.Helper()
	as = testAS(t)
	const span = 2 * machine.HugePageSize
	as.Mem().Scramble(2 * span / page)
	var err error
	if small, err = as.MapSmall(span); err != nil {
		t.Fatal(err)
	}
	pages, err := as.Pages(nil, small, span)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pages); i++ {
		if pages[i].PA == pages[i-1].PA+page {
			t.Fatalf("small pages %d and %d are physically adjacent", i-1, i)
		}
	}
	if huge, err = as.MapHuge(span); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i, base := range []vm.VA{small, huge} {
		b := make([]byte, machine.HugePageSize/2)
		rng.Read(b)
		if err := as.Write(base, b); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteRamp(base+machine.HugePageSize/2, 40+i, machine.HugePageSize/2); err != nil {
			t.Fatal(err)
		}
	}
	return as, small, huge
}

// read returns n bytes at va.
func read(t *testing.T, as *vm.AddressSpace, va vm.VA, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := as.Read(va, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCopyMatchesReadWrite checks Copy against the Read-then-Write pair
// it replaces, between small pages and hugepages in both directions:
// private, ramp and never-written sources; starts on and off a frame
// boundary; and lengths from a byte to spans crossing several pages.
// Bytes around the destination must stay as they were.
func TestCopyMatchesReadWrite(t *testing.T) {
	as, small, huge := copySpace(t)
	// Source offsets into the private bytes, the ramp (from its first
	// frame boundary and off it) and the never-written hugepage.
	srcOffs := []int{0, 5, page - 3, machine.HugePageSize / 2, machine.HugePageSize/2 + 17, machine.HugePageSize + 9}
	dstOffs := []int{0, 1, page - 1, 3*page + 100}
	lengths := []int{1, 100, page, page + 1, 3*page + 7}
	const margin = 64
	dirt := bytes.Repeat([]byte{0xa5}, 4*page+2*margin)
	for _, dir := range []struct {
		name     string
		src, dst vm.VA
	}{{"small->huge", small, huge}, {"huge->small", huge, small}, {"small->small", small, small}} {
		// Destinations sit past the source region's written extent, so
		// the two ranges never overlap.
		dstBase := dir.dst + 3*machine.HugePageSize/2
		for _, so := range srcOffs {
			for _, do := range dstOffs {
				for _, n := range lengths {
					src, dst := dir.src+vm.VA(so), dstBase+vm.VA(do)
					if err := as.Write(dst-margin, dirt); err != nil {
						t.Fatal(err)
					}
					want := read(t, as, dst-margin, n+2*margin)
					copy(want[margin:], read(t, as, src, n))
					if err := as.Copy(dst, src, n); err != nil {
						t.Fatalf("%s: Copy(+%d, +%d, %d): %v", dir.name, do, so, n, err)
					}
					if got := read(t, as, dst-margin, n+2*margin); !bytes.Equal(got, want) {
						t.Fatalf("%s: Copy(+%d, +%d, %d) differs from Read+Write", dir.name, do, so, n)
					}
				}
			}
		}
	}
}

// TestCopyNeverWrittenSourceReadsZeros: a copy from memory nobody wrote
// leaves zeros at a destination that held other bytes.
func TestCopyNeverWrittenSourceReadsZeros(t *testing.T) {
	as, small, huge := copySpace(t)
	src := huge + machine.HugePageSize + 3
	n := 2*page + 11
	if err := as.Write(small+5, bytes.Repeat([]byte{0xff}, n)); err != nil {
		t.Fatal(err)
	}
	if err := as.Copy(small+5, src, n); err != nil {
		t.Fatal(err)
	}
	if got := read(t, as, small+5, n); !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("a never-written source did not arrive as zeros")
	}
}

// TestCopyKeepsRampFramesShared: a whole ramp frame copies by pointer,
// so it allocates nothing, even where the destination frame already
// shares another ramp frame; a private copy would clone that frame
// first. A later write to the destination leaves the source unchanged.
func TestCopyKeepsRampFramesShared(t *testing.T) {
	as, small, huge := copySpace(t)
	src := small + machine.HugePageSize/2 + 4*page // whole ramp frames
	dst := huge + machine.HugePageSize + 8*page
	before := read(t, as, src, 4*page)
	if n := testing.AllocsPerRun(20, func() {
		if err := as.WriteRamp(dst, 7, 4*page); err != nil {
			t.Fatal(err)
		}
		if err := as.Copy(dst, src, 4*page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("copying whole ramp frames made %v allocations, want 0", n)
	}
	if got := read(t, as, dst, 4*page); !bytes.Equal(got, before) {
		t.Fatal("the copied ramp frames read differently from the source")
	}
	if err := as.Write(dst+page, []byte{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := read(t, as, src, 4*page); !bytes.Equal(got, before) {
		t.Fatal("a write to the copy changed the source")
	}
}

// TestCopyRefusesUnmappedAndOverlapping: a source or destination that
// runs past its mapping, or two overlapping ranges, fail before any
// byte moves.
func TestCopyRefusesUnmappedAndOverlapping(t *testing.T) {
	as, small, huge := copySpace(t)
	end := huge + 2*machine.HugePageSize // nothing is mapped past it
	dst := small + machine.HugePageSize
	want := read(t, as, dst, 2*page)
	for _, c := range []struct {
		name     string
		dst, src vm.VA
		err      error
	}{
		{"source past the mapping", dst, end - page, vm.ErrUnmapped},
		{"destination past the mapping", end - page, small, vm.ErrUnmapped},
		{"overlapping", dst, dst + page, vm.ErrOverlap},
	} {
		if err := as.Copy(c.dst, c.src, 2*page); !errors.Is(err, c.err) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.err)
		}
		if got := read(t, as, dst, 2*page); !bytes.Equal(got, want) {
			t.Fatalf("%s: bytes moved before the error", c.name)
		}
	}
	if got := read(t, as, end-page, page); !bytes.Equal(got, make([]byte, page)) {
		t.Fatal("the destination running past its mapping was written")
	}
}

// TestReduceF64RefusesBadRanges: ReduceF64 shares Copy's range checks
// and also needs 8-byte alignment of both addresses and the length;
// every refusal comes before any value changes.
func TestReduceF64RefusesBadRanges(t *testing.T) {
	as, small, huge := copySpace(t)
	end := huge + 2*machine.HugePageSize // nothing is mapped past it
	dst := small + machine.HugePageSize
	want := read(t, as, dst, 2*page)
	for _, c := range []struct {
		name     string
		dst, src vm.VA
		n        int
		err      error
	}{
		{"source past the mapping", dst, end - page, 2 * page, vm.ErrUnmapped},
		{"overlapping", dst, dst + page, 2 * page, vm.ErrOverlap},
		{"unaligned destination", dst + 4, huge, 2 * page, nil},
		{"unaligned source", dst, huge + 4, 2 * page, nil},
		{"unaligned length", dst, huge, 2*page - 4, nil},
	} {
		err := as.ReduceF64(c.dst, c.src, c.n, phys.Sum)
		if c.err != nil && !errors.Is(err, c.err) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.err)
		}
		if c.err == nil && (err == nil || !strings.Contains(err.Error(), "8-byte alignment")) {
			t.Errorf("%s: got %v, want an alignment error", c.name, err)
		}
		if got := read(t, as, dst, 2*page); !bytes.Equal(got, want) {
			t.Fatalf("%s: values changed before the error", c.name)
		}
	}
}
