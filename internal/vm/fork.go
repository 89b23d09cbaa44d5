package vm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/phys"
)

// Fork and copy-on-write. The paper's mapping layer "must leave a reserve
// of hugepages that are needed when forking processes for Copy-on-Write
// reasons": a forked child initially shares all hugepages with its parent,
// and the first write to a shared hugepage needs a whole fresh hugepage
// from the pool — if the allocator has handed every pool page out, that
// write has nowhere to go. The reserve (phys.Memory.Reserve) is the pages
// the allocator refuses to touch so CoW breaks can always be satisfied:
// CoW allocation deliberately digs into it (phys.Memory.AllocHugeCoW).

// Fork clones the address space. Small-page and hugepage mappings are
// shared copy-on-write; pinned pages are copied eagerly (DMA-registered
// memory cannot fault, exactly like get_user_pages pages on Linux).
// Pin state itself does not transfer: the child holds no registrations.
func (as *AddressSpace) Fork() (*AddressSpace, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	child := &AddressSpace{
		mem:      as.mem,
		brk:      as.brk,
		mmapNext: as.mmapNext,
		hugeNext: as.hugeNext,
		regions:  make([]region, len(as.regions)),
	}
	// The child's entries are one fresh array, so no entry is shared
	// between the two spaces.
	total := 0
	for _, r := range as.regions {
		total += len(r.ptes)
	}
	ptes := make([]pte, total)
	for i, r := range as.regions {
		n := len(r.ptes)
		child.regions[i] = region{r.start, r.size, r.class, ptes[:n:n]}
		ptes = ptes[n:]
	}
	copyPage := func(src *pte, class PageClass) (pte, error) {
		if src.pins == 0 {
			// Share CoW: both sides now fault on write.
			src.cow = true
			return pte{frame: src.frame, cow: true}, nil
		}
		// Pinned in the parent: copy the contents eagerly.
		var f phys.Frame
		var err error
		if class == Huge {
			f, err = as.mem.AllocHugeCoW()
		} else {
			f, err = as.mem.AllocFrame()
		}
		if err != nil {
			return pte{}, err
		}
		as.mem.CopyPhys(
			phys.Addr(uint64(f)*machine.SmallPageSize),
			phys.Addr(uint64(src.frame)*machine.SmallPageSize),
			int(class.Size()))
		return pte{frame: f}, nil
	}
	// Walk every small page in address order, then every hugepage:
	// eager copies allocate physical frames as they go, and the
	// resulting frame layout must be a pure function of the address
	// space, or it would leak into every downstream placement decision
	// and break run-for-run reproducibility across processes.
	for _, class := range []PageClass{Small, Huge} {
		for i := range as.regions {
			r := &as.regions[i]
			if r.class != class {
				continue
			}
			for k := range r.ptes {
				np, err := copyPage(&r.ptes[k], class)
				if err != nil {
					return nil, fmt.Errorf("vm: fork: %w", err)
				}
				child.regions[i].ptes[k] = np
				if class == Huge {
					child.stats.MappedHuge++
				} else {
					child.stats.MappedSmall++
				}
			}
		}
	}
	return child, nil
}

// breakCoW gives the entry, a page of the given class, a private copy of
// its page. Callers hold as.mu.
func (as *AddressSpace) breakCoW(p *pte, class PageClass) error {
	var f phys.Frame
	var err error
	if class == Huge {
		// This is the allocation the reserve exists for.
		f, err = as.mem.AllocHugeCoW()
	} else {
		f, err = as.mem.AllocFrame()
	}
	if err != nil {
		return fmt.Errorf("vm: copy-on-write: %w", err)
	}
	as.mem.CopyPhys(
		phys.Addr(uint64(f)*machine.SmallPageSize),
		phys.Addr(uint64(p.frame)*machine.SmallPageSize),
		int(class.Size()))
	// The old frame stays with whichever other space references it; the
	// simulator does not refcount frames, matching the accounting focus
	// of the model (pool pressure), not exact RSS.
	p.frame = f
	p.cow = false
	// A fresh private frame is no longer part of a demoted hugepage run.
	p.split = false
	as.stats.CoWBreaks++
	return nil
}
