package kernel

import (
	"fmt"
	"slices"

	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

// User address-space layout (MIPS convention, simplified).
const (
	// TextBase is where user program text begins.
	TextBase mem.VAddr = 0x0040_0000
	// DataBase is where user heap/data begins.
	DataBase mem.VAddr = 0x1000_0000
	// StackTop is the top of the user stack region (grows down).
	StackTop mem.VAddr = 0x7fff_f000
)

// pte encodes a page-table entry: frame number in the low 20 bits, plus a
// hardware valid bit and a software resident bit. The resident bit is the
// "extra bit maintained in software to indicate the true state of the
// page" from Section 3.2, footnote 2: Tapeworm's TLB mode clears the valid
// bit of resident pages to force traps, and the VM system must still know
// the page is really in memory.
type pte uint32

const (
	pteValid    pte = 1 << 31
	pteResident pte = 1 << 30
	pteShared   pte = 1 << 29 // text page shared with parent at fork
	frameMask   pte = 1<<20 - 1
)

func (p pte) frame() uint32  { return uint32(p & frameMask) }
func (p pte) valid() bool    { return p&pteValid != 0 }
func (p pte) resident() bool { return p&pteResident != 0 }
func (p pte) sharedTx() bool { return p&pteShared != 0 }

// AddrSpace is a two-level page table. The second level is allocated on
// demand, keeping per-task memory proportional to the footprint even with
// the 281-task sdet fork tree.
type AddrSpace struct {
	chunks   map[uint32]*[1024]pte // vpn>>10 -> 1024 ptes
	pageSize uint32
	pageBits uint
}

// newAddrSpace creates an empty address space for the given page size.
func newAddrSpace(pageSize int) *AddrSpace {
	bits := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		bits++
	}
	return &AddrSpace{
		chunks:   make(map[uint32]*[1024]pte),
		pageSize: uint32(pageSize),
		pageBits: bits,
	}
}

func (a *AddrSpace) vpn(va mem.VAddr) uint32 { return uint32(va) >> a.pageBits }

func (a *AddrSpace) lookup(vpn uint32) pte {
	if c := a.chunks[vpn>>10]; c != nil {
		return c[vpn&1023]
	}
	return 0
}

func (a *AddrSpace) set(vpn uint32, p pte) {
	c := a.chunks[vpn>>10]
	if c == nil {
		c = new([1024]pte)
		a.chunks[vpn>>10] = c
	}
	c[vpn&1023] = p
}

// Translate resolves va to a physical address if the mapping is valid.
func (a *AddrSpace) Translate(va mem.VAddr) (mem.PAddr, bool) {
	p := a.lookup(a.vpn(va))
	if !p.valid() {
		return 0, false
	}
	return mem.PAddr(p.frame()*a.pageSize) + mem.PAddr(uint32(va)&(a.pageSize-1)), true
}

// Pages calls fn for every mapped page with its vpn and entry state, in
// ascending vpn order. Ordered iteration matters: exit() releases frames
// through this walk, so a map-order walk would free frames in a different
// order each run and the allocator's reuse order — hence every
// physically-indexed result — would stop being reproducible.
func (a *AddrSpace) pages(fn func(vpn uint32, p pte)) {
	his := make([]uint32, 0, len(a.chunks))
	for hi := range a.chunks {
		his = append(his, hi)
	}
	slices.Sort(his)
	for _, hi := range his {
		for lo, p := range a.chunks[hi] {
			if p != 0 {
				fn(hi<<10|uint32(lo), p)
			}
		}
	}
}

// MemSimHooks is the attachment point for a kernel-resident memory
// simulator (Tapeworm). The VM system invokes PageRegistered for every
// mapping established for a simulated task — including additional virtual
// mappings of an already-mapped physical page, so the simulator can do its
// own reference counting of shared pages — and PageRemoved when mappings
// are destroyed by task exit or page-out. Trap hooks return true when the
// simulator consumed the trap.
type MemSimHooks interface {
	// PageRegistered is tw_register_page: kind is the access kind that
	// faulted the page in (IFetch for text pages), letting a simulator
	// restricted to one cache side skip irrelevant pages.
	PageRegistered(t mem.TaskID, pa mem.PAddr, va mem.VAddr, kind mem.RefKind)
	PageRemoved(t mem.TaskID, pa mem.PAddr, va mem.VAddr)
	TaskForked(parent, child *Task)
	TaskExited(t mem.TaskID)
	// ECCTrap is the memory-error trap path. Returns true if the trap was
	// a Tapeworm trap and was consumed.
	ECCTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, k mem.RefKind) bool
	// InvalidPageTrap fires when a fault hits a page that is resident but
	// marked invalid (a page-valid-bit trap, used for TLB simulation).
	// Returns true if the simulator revalidated the page.
	InvalidPageTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr, k mem.RefKind) bool
	BreakpointTrap(t mem.TaskID, va mem.VAddr, pa mem.PAddr)
}

// frameAllocator hands out physical page frames in a per-boot randomized
// order. This randomness is a real OS effect, not a simulation artifact:
// "the distributions of physical page frames allocated to a task, which
// change from run to run, affect the sequence of addresses seen by a
// physically-indexed cache" (Section 4.2, [Kessler92, Sites88]). Table 9
// measures exactly this; varying the allocator's seed between trials is
// how experiments reproduce it, and pinning the seed removes it.
type frameAllocator struct {
	free     []uint32
	refcount []uint16 // per-frame mapping count (shared pages)
}

// newFrameAllocator builds the allocator with every unreserved frame free,
// in shuffled order.
func newFrameAllocator(totalFrames, reservedFrames int, r *rng.Source) *frameAllocator {
	fa := emptyFrameAllocator(totalFrames)
	n := totalFrames - reservedFrames
	for i := 0; i < n; i++ {
		fa.free = append(fa.free, uint32(reservedFrames+i))
	}
	// Fisher-Yates with the allocator's own stream.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		fa.free[i], fa.free[j] = fa.free[j], fa.free[i]
	}
	return fa
}

// restoreFrameAllocator rebuilds an allocator from a copy of checkpointed
// tables, which checkFrameTables has vetted. The checkpoint's free list is
// already shuffled, so a restored allocator hands out the exact frame
// sequence the captured boot would have — without re-running Fisher-Yates,
// the dominant boot-only cost.
func restoreFrameAllocator(totalFrames int, free []uint32, refcount []uint16) *frameAllocator {
	fa := emptyFrameAllocator(totalFrames)
	fa.free = append(fa.free, free...)
	copy(fa.refcount, refcount)
	return fa
}

// emptyFrameAllocator returns an allocator over totalFrames frames with an
// empty free list (capacity for every frame) and zero mapping counts.
func emptyFrameAllocator(totalFrames int) *frameAllocator {
	return &frameAllocator{
		free:     make([]uint32, 0, totalFrames),
		refcount: make([]uint16, totalFrames),
	}
}

// alloc pops a free frame; ok is false when memory is exhausted.
func (fa *frameAllocator) alloc() (uint32, bool) {
	if len(fa.free) == 0 {
		return 0, false
	}
	f := fa.free[len(fa.free)-1]
	fa.free = fa.free[:len(fa.free)-1]
	fa.refcount[f] = 1
	return f, true
}

// share increments the mapping count of an in-use frame.
func (fa *frameAllocator) share(f uint32) { fa.refcount[f]++ }

// release decrements the mapping count, freeing the frame at zero.
// Returns true when the frame was actually freed.
func (fa *frameAllocator) release(f uint32) bool {
	if fa.refcount[f] == 0 {
		panic(fmt.Sprintf("kernel: release of free frame %d", f))
	}
	fa.refcount[f]--
	if fa.refcount[f] == 0 {
		fa.free = append(fa.free, f)
		return true
	}
	return false
}

// FreeFrames reports how many frames remain unallocated.
func (fa *frameAllocator) freeFrames() int { return len(fa.free) }
