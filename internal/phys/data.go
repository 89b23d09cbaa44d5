package phys

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/machine"
)

// Backing store: the simulator moves real bytes so that end-to-end tests
// (Pack/Unpack identity, NAS numerics, RDMA) verify data integrity, not
// just timing. Frame contents are allocated lazily on first write; a read
// of a never-written frame observes zeros, like freshly mapped memory.
//
// The payload pattern the benchmarks and workloads write, byte(c+i), has
// only 256 distinct whole-frame images, one per c mod 256. Those frames
// are built once per process and shared read-only: a ramp write or a
// copy that covers a whole frame stores a pointer to one of them
// instead of allocating and filling 4 KiB. backedFrame, the only path
// that hands out a frame for writing, clones a shared frame first, so
// no write ever reaches one.

type frameData = [machine.SmallPageSize]byte

// rampFrames[c] is the frame whose byte i is byte(c+i). Byte 0 of a ramp
// frame is its own index, so isRamp tells a shared frame from a private
// one in O(1).
var (
	rampFrames [256]frameData
	rampOnce   sync.Once
)

// rampFrame returns the shared frame holding byte(c), byte(c+1), ….
func rampFrame(c int) *frameData {
	rampOnce.Do(func() {
		for c := range rampFrames {
			for i := range rampFrames[c] {
				rampFrames[c][i] = byte(c + i)
			}
		}
	})
	return &rampFrames[c&255]
}

// isRamp reports whether fd is one of the shared ramp frames.
func isRamp(fd *frameData) bool { return fd == &rampFrames[fd[0]] }

// chunkFrames is the number of frames one frameChunk covers: 128 frames,
// 1 KiB of pointers. Against the map this table replaced (scale-1024
// alloc_mb 687.9, paper-micro allocs_k 30.81 in benchmark/), 128 is the
// one size measured that lowers both, to 684.5 and 30.80. Smaller chunks
// add paper-micro objects (64: 30.99, 32: 31.38, 16: 32.16). Larger ones
// add scale-1024 bytes (256: 687.9), because each of its 1024 nodes
// writes a few frames per zone and pays for a chunk it barely uses.
const chunkFrames = 128

type frameChunk [chunkFrames]*frameData

// frameTable indexes one zone's frame contents densely by frame number
// within the zone. Chunks, and the table itself, grow on first write, so
// a node pays only for the stretch of a zone it has written.
type frameTable []*frameChunk

// dataStore holds frame contents in two tables, one indexed from frame 0
// for the small zone and one from hugeBase for the hugepage pool, so
// neither table spans the gap between the two zones.
type dataStore struct {
	small, huge frameTable
}

// Release drops the contents of every frame, shared ramp frames
// included, so the memory no longer keeps them reachable, and returns
// the bytes of private frame contents it dropped (shared ramp frames
// cost nothing to drop). Afterwards every frame reads as zeros, as if it
// had never been written; frame accounting and the pools are untouched.
// A finished world releases its nodes' memories once its results have
// been read.
func (m *Memory) Release() int {
	n := m.data.small.private() + m.data.huge.private()
	m.data = dataStore{}
	return n * machine.SmallPageSize
}

// private counts the table's frames that hold private contents.
func (t frameTable) private() int {
	n := 0
	for _, c := range t {
		if c == nil {
			continue
		}
		for _, fd := range c {
			if fd != nil && !isRamp(fd) {
				n++
			}
		}
	}
	return n
}

// table returns the table holding frame f and f's index within it.
func (m *Memory) table(f Frame) (*frameTable, Frame) {
	if f >= m.hugeBase {
		return &m.data.huge, f - m.hugeBase
	}
	return &m.data.small, f
}

// frame returns f's contents, or nil if f was never written.
func (m *Memory) frame(f Frame) *frameData {
	t, i := m.table(f)
	if c := i / chunkFrames; c < Frame(len(*t)) && (*t)[c] != nil {
		return (*t)[c][i%chunkFrames]
	}
	return nil
}

// slot returns the table cell that holds f's contents, growing the
// table to reach it.
func (m *Memory) slot(f Frame) **frameData {
	t, i := m.table(f)
	c := int(i / chunkFrames)
	if c >= len(*t) {
		*t = append(*t, make(frameTable, c+1-len(*t))...)
	}
	ch := (*t)[c]
	if ch == nil {
		ch = new(frameChunk)
		(*t)[c] = ch
	}
	return &ch[i%chunkFrames]
}

// backedFrame returns f's contents for writing: allocated (zeroed) on
// first use, and cloned into a private frame if f shares a ramp frame.
func (m *Memory) backedFrame(f Frame) *frameData {
	s := m.slot(f)
	switch fd := *s; {
	case fd == nil:
		*s = new(frameData)
	case isRamp(fd):
		own := *fd
		*s = &own
	}
	return *s
}

// WritePhys copies p into physical memory starting at address pa,
// crossing frame boundaries as needed.
func (m *Memory) WritePhys(pa Addr, p []byte) {
	for len(p) > 0 {
		off := int(pa % machine.SmallPageSize)
		n := min(len(p), machine.SmallPageSize-off)
		copy(m.backedFrame(Frame(pa / machine.SmallPageSize))[off:off+n], p[:n])
		pa += Addr(n)
		p = p[n:]
	}
}

// WriteRamp writes the n bytes byte(c), byte(c+1), …, byte(c+n-1) to
// physical memory starting at address pa. A whole frame it covers
// shares a ramp frame; a partial one is filled from it.
func (m *Memory) WriteRamp(pa Addr, c, n int) {
	for n > 0 {
		off := int(pa % machine.SmallPageSize)
		k := min(n, machine.SmallPageSize-off)
		f := Frame(pa / machine.SmallPageSize)
		if k == machine.SmallPageSize {
			*m.slot(f) = rampFrame(c)
		} else {
			copy(m.backedFrame(f)[off:off+k], rampFrame(c)[:k])
		}
		pa += Addr(k)
		c += k
		n -= k
	}
}

// ReadPhys fills p from physical memory starting at address pa.
func (m *Memory) ReadPhys(pa Addr, p []byte) {
	for len(p) > 0 {
		off := int(pa % machine.SmallPageSize)
		n := min(len(p), machine.SmallPageSize-off)
		if fd := m.frame(Frame(pa / machine.SmallPageSize)); fd != nil {
			copy(p[:n], fd[off:off+n])
		} else {
			clear(p[:n])
		}
		pa += Addr(n)
		p = p[n:]
	}
}

// Copy moves n bytes from srcPA in src to dstPA in dst frame to frame,
// with no intermediate buffer: the DMA engine's copy between two nodes'
// memories (src and dst may be the same Memory if the ranges do not
// overlap). A never-written source frame arrives as zeros; a destination
// frame that was never written and receives only zeros stays unbacked,
// which reads back the same. A whole source frame that shares a ramp
// frame is passed on by pointer. It panics on a negative length.
func Copy(dst *Memory, dstPA Addr, src *Memory, srcPA Addr, n int) {
	if n < 0 {
		panic(fmt.Sprintf("phys: negative copy length %d", n))
	}
	for n > 0 {
		soff := int(srcPA % machine.SmallPageSize)
		doff := int(dstPA % machine.SmallPageSize)
		c := min(n, machine.SmallPageSize-soff, machine.SmallPageSize-doff)
		df := Frame(dstPA / machine.SmallPageSize)
		switch sf := src.frame(Frame(srcPA / machine.SmallPageSize)); {
		case sf != nil && c == machine.SmallPageSize && isRamp(sf):
			*dst.slot(df) = sf
		case sf != nil:
			copy(dst.backedFrame(df)[doff:doff+c], sf[soff:soff+c])
		case dst.frame(df) != nil:
			clear(dst.backedFrame(df)[doff : doff+c])
		}
		srcPA += Addr(c)
		dstPA += Addr(c)
		n -= c
	}
}

// ReduceOp is an elementwise float64 reduction.
type ReduceOp uint8

// The reductions ReduceF64 applies. Max keeps a > b ? a : b, so a NaN
// on either side yields the second operand.
const (
	Sum ReduceOp = iota
	Max
)

// zeroFrame is what a never-written frame reads as.
var zeroFrame frameData

// ReduceF64 combines the n bytes of little-endian float64s at srcPA into
// those at dstPA, frame to frame and in place: dst = dst op src for each
// 8-byte word, with no decoded copy of either operand. A never-written
// frame reads as zeros; a destination frame that was never written stays
// unbacked when its source reads as zeros too (0 op 0 is +0 for both
// ops). A destination frame that shares a ramp frame gets a private
// copy first. n and both addresses must be multiples of 8, so no value
// straddles a frame, and the ranges must not overlap; ReduceF64 panics
// otherwise.
func (m *Memory) ReduceF64(dstPA, srcPA Addr, n int, op ReduceOp) {
	if n < 0 || n%8 != 0 || dstPA%8 != 0 || srcPA%8 != 0 {
		panic(fmt.Sprintf("phys: float64 reduce of %d bytes at %#x from %#x is not 8-byte aligned", n, dstPA, srcPA))
	}
	for n > 0 {
		soff := int(srcPA % machine.SmallPageSize)
		doff := int(dstPA % machine.SmallPageSize)
		c := min(n, machine.SmallPageSize-soff, machine.SmallPageSize-doff)
		df := Frame(dstPA / machine.SmallPageSize)
		sf := m.frame(Frame(srcPA / machine.SmallPageSize))
		if sf != nil || m.frame(df) != nil {
			if sf == nil {
				sf = &zeroFrame
			}
			reduceWords(m.backedFrame(df)[doff:doff+c], sf[soff:soff+c], op)
		}
		srcPA += Addr(c)
		dstPA += Addr(c)
		n -= c
	}
}

// reduceWords applies d[i] = d[i] op s[i] to the float64 words of d and
// s, which have the same length.
func reduceWords(d, s []byte, op ReduceOp) {
	s = s[:len(d)]
	switch op {
	case Sum:
		for i := 0; i+8 <= len(d); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(d[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(s[i:]))
			binary.LittleEndian.PutUint64(d[i:], math.Float64bits(a+b))
		}
	case Max:
		for i := 0; i+8 <= len(d); i += 8 {
			b := binary.LittleEndian.Uint64(s[i:])
			if !(math.Float64frombits(binary.LittleEndian.Uint64(d[i:])) > math.Float64frombits(b)) {
				binary.LittleEndian.PutUint64(d[i:], b)
			}
		}
	default:
		panic(fmt.Sprintf("phys: unknown reduce op %d", op))
	}
}
