package phys

import (
	"fmt"
	"sync"

	"repro/internal/machine"
)

// Backing store: the simulator moves real bytes so that end-to-end tests
// (Pack/Unpack identity, NAS numerics, RDMA) verify data integrity, not
// just timing. Frame contents are allocated lazily on first write; a read
// of a never-written frame observes zeros, like freshly mapped memory.

type frameData = [machine.SmallPageSize]byte

// dataStore is split out of Memory so the hot read/write path takes its
// own lock and never contends with frame allocation.
type dataStore struct {
	mu     sync.RWMutex
	frames map[Frame]*frameData
}

func (d *dataStore) frame(f Frame, create bool) *frameData {
	d.mu.RLock()
	fd := d.frames[f]
	d.mu.RUnlock()
	if fd != nil || !create {
		return fd
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frames == nil {
		d.frames = make(map[Frame]*frameData)
	}
	if fd = d.frames[f]; fd == nil {
		fd = new(frameData)
		d.frames[f] = fd
	}
	return fd
}

// WritePhys copies p into physical memory starting at address pa,
// crossing frame boundaries as needed.
func (m *Memory) WritePhys(pa Addr, p []byte) {
	for len(p) > 0 {
		f := Frame(pa / machine.SmallPageSize)
		off := int(pa % machine.SmallPageSize)
		n := machine.SmallPageSize - off
		if n > len(p) {
			n = len(p)
		}
		fd := m.data.frame(f, true)
		copy(fd[off:off+n], p[:n])
		pa += Addr(n)
		p = p[n:]
	}
}

// ReadPhys fills p from physical memory starting at address pa.
func (m *Memory) ReadPhys(pa Addr, p []byte) {
	for len(p) > 0 {
		f := Frame(pa / machine.SmallPageSize)
		off := int(pa % machine.SmallPageSize)
		n := machine.SmallPageSize - off
		if n > len(p) {
			n = len(p)
		}
		if fd := m.data.frame(f, false); fd != nil {
			copy(p[:n], fd[off:off+n])
		} else {
			for i := 0; i < n; i++ {
				p[i] = 0
			}
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
		if sf := src.data.frame(Frame(srcPA/machine.SmallPageSize), false); sf != nil {
			df := dst.data.frame(Frame(dstPA/machine.SmallPageSize), true)
			copy(df[doff:doff+c], sf[soff:soff+c])
		} else if df := dst.data.frame(Frame(dstPA/machine.SmallPageSize), false); df != nil {
			clear(df[doff : doff+c])
		}
		srcPA += Addr(c)
		dstPA += Addr(c)
		n -= c
	}
}
