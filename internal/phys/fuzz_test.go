package phys

import (
	"bytes"
	"testing"
)

// zoneFrames is how many frames of each zone FuzzFrameOps works in: the
// first of the small zone and the first of the hugepage pool.
const zoneFrames = 8

// fuzzZone is one zone window of one memory with its flat oracle.
type fuzzZone struct {
	m      *Memory
	base   Addr
	oracle []byte
}

// fuzzOps reads an operation sequence from the fuzzer's bytes; past the
// end every read is 0.
type fuzzOps []byte

func (o *fuzzOps) next() int {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return int(b)
}

// pos picks an offset in a zone window, a frame boundary half the time.
func (o *fuzzOps) pos() int {
	f, sub := o.next()%zoneFrames, o.next()
	if sub&1 == 0 {
		return f * page
	}
	return f*page + sub*17%page
}

// length picks a length of up to three whole frames, plus a partial
// frame half the time, clipped to what is left of the window from the
// offsets given.
func (o *fuzzOps) length(offs ...int) int {
	frames, extra := o.next()%4, o.next()
	n := frames * page
	if extra&1 == 1 {
		n += extra * 13 % page
	}
	for _, off := range offs {
		n = min(n, zoneFrames*page-off)
	}
	return n
}

// FuzzFrameOps runs random sequences of WriteRamp, WritePhys, Copy
// (between memories and within one), frame free-and-reallocate and
// ReadPhys over the first frames of both zones of two memories, against
// one flat byte slice per zone.
// After every step the 256 shared ramp frames must still hold the ramp.
func FuzzFrameOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := testMem(t), testMem(t)
		var zones []*fuzzZone
		for _, m := range []*Memory{a, b} {
			for range zoneFrames {
				if _, err := m.AllocFrame(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.AllocHuge(); err != nil {
				t.Fatal(err)
			}
			zones = append(zones,
				&fuzzZone{m, 0, make([]byte, zoneFrames*page)},
				&fuzzZone{m, Addr(m.hugeBase) * page, make([]byte, zoneFrames*page)})
		}
		ops := fuzzOps(data)
		got := make([]byte, zoneFrames*page)
		for len(ops) > 0 {
			zi := ops.next() % len(zones)
			z := zones[zi]
			switch op := ops.next() % 6; op {
			case 0: // WriteRamp
				off := ops.pos()
				n := ops.length(off)
				c := ops.next() | ops.next()<<8
				z.m.WriteRamp(z.base+Addr(off), c, n)
				copy(z.oracle[off:], ramp(c, n))
			case 1: // WritePhys
				off := ops.pos()
				p := bytes.Repeat([]byte{byte(ops.next())}, ops.length(off))
				z.m.WritePhys(z.base+Addr(off), p)
				copy(z.oracle[off:], p)
			case 2, 3: // Copy from any zone (2) or within z's memory (3)
				src := zones[ops.next()%len(zones)]
				if op == 3 {
					src = zones[zi&^1+ops.next()%2] // zones come in pairs per memory
				}
				doff, soff := ops.pos(), ops.pos()
				n := ops.length(doff, soff)
				if src == z && doff < soff+n && soff < doff+n {
					continue // the copies do not take overlapping ranges
				}
				Copy(z.m, z.base+Addr(doff), src.m, src.base+Addr(soff), n)
				copy(z.oracle[doff:doff+n], src.oracle[soff:soff+n])
			case 4: // free a frame and take it back: its contents stay
				if z.base == 0 {
					fr := Frame(ops.next() % zoneFrames)
					if err := z.m.FreeFrame(fr); err != nil {
						t.Fatal(err)
					}
					if again, err := z.m.AllocFrame(); err != nil || again != fr {
						t.Fatalf("freed frame %d, reallocated %d (%v)", fr, again, err)
					}
				} else {
					if err := z.m.FreeHuge(z.m.hugeBase); err != nil {
						t.Fatal(err)
					}
					if again, err := z.m.AllocHuge(); err != nil || again != z.m.hugeBase {
						t.Fatalf("freed hugepage %d, reallocated %d (%v)", z.m.hugeBase, again, err)
					}
				}
			case 5: // ReadPhys
				off := ops.pos()
				n := ops.length(off)
				z.m.ReadPhys(z.base+Addr(off), got[:n])
				if !bytes.Equal(got[:n], z.oracle[off:off+n]) {
					t.Fatalf("ReadPhys(+%d, %d) differs from the oracle", off, n)
				}
			}
			checkRampFrames(t)
		}
		for _, z := range zones {
			z.m.ReadPhys(z.base, got)
			if !bytes.Equal(got, z.oracle) {
				t.Fatal("memory differs from the oracle after the sequence")
			}
		}
	})
}
