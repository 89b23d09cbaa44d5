package phys

import (
	"fmt"

	"repro/internal/machine"
)

// Backing store: the simulator moves real bytes so that end-to-end tests
// (Pack/Unpack identity, NAS numerics, RDMA) verify data integrity, not
// just timing. Frame contents are allocated lazily on first write; a read
// of a never-written frame observes zeros, like freshly mapped memory.

type frameData = [machine.SmallPageSize]byte

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

// backedFrame returns f's contents, allocating them (zeroed) on first use.
func (m *Memory) backedFrame(f Frame) *frameData {
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
	fd := ch[i%chunkFrames]
	if fd == nil {
		fd = new(frameData)
		ch[i%chunkFrames] = fd
	}
	return fd
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

// CopyPhys copies n bytes from physical address src to physical address
// dst within this memory, possibly between different alignments. The two
// ranges must not overlap. It panics on a negative length.
func (m *Memory) CopyPhys(dst, src Addr, n int) { Copy(m, dst, m, src, n) }

// Copy moves n bytes from srcPA in src to dstPA in dst frame to frame,
// with no intermediate buffer: the DMA engine's copy between two nodes'
// memories (src and dst may be the same Memory if the ranges do not
// overlap). A never-written source frame arrives as zeros; a destination
// frame that was never written and receives only zeros stays unbacked,
// which reads back the same. It panics on a negative length.
func Copy(dst *Memory, dstPA Addr, src *Memory, srcPA Addr, n int) {
	if n < 0 {
		panic(fmt.Sprintf("phys: negative copy length %d", n))
	}
	for n > 0 {
		soff := int(srcPA % machine.SmallPageSize)
		doff := int(dstPA % machine.SmallPageSize)
		c := min(n, machine.SmallPageSize-soff, machine.SmallPageSize-doff)
		df := Frame(dstPA / machine.SmallPageSize)
		if sf := src.frame(Frame(srcPA / machine.SmallPageSize)); sf != nil {
			copy(dst.backedFrame(df)[doff:doff+c], sf[soff:soff+c])
		} else if fd := dst.frame(df); fd != nil {
			clear(fd[doff : doff+c])
		}
		srcPA += Addr(c)
		dstPA += Addr(c)
		n -= c
	}
}
