// Package vm implements the GPU virtual memory system of Section 2.3:
// per-CU L1 TLBs, a per-GPU shared L2 TLB, and a GMMU with a page walk
// cache and parallel page table walkers traversing a four-level radix
// page table that lives in (possibly remote) physical memory. PTE pages
// are co-located with the first data page of the 2MB region they map.
package vm

import "fmt"

// Virtual memory geometry: 48-bit virtual addresses, 4KB pages, four
// radix levels of 9 bits each.
const (
	PageShift    = 12
	PageBytes    = 1 << PageShift
	BitsPerLevel = 9
	Levels       = 4
	IndexMask    = (1 << BitsPerLevel) - 1
	// PTEBytes is the size of one page table entry.
	PTEBytes = 8
	// RegionPages is how many pages one leaf PTE page maps (2MB).
	RegionPages = 1 << BitsPerLevel
)

// VPN extracts the virtual page number of a virtual address.
func VPN(vaddr uint64) uint64 { return vaddr >> PageShift }

// FrameAllocator provides physical 4KB frames on a chosen GPU for page
// table nodes.
type FrameAllocator interface {
	AllocFrame(gpu int) uint64 // returns the frame's physical base address
}

// node is one 4KB page-table page.
type node struct {
	addr     uint64
	children map[int]*node  // interior levels
	ptes     map[int]uint64 // leaf level: slot -> physical page base
}

// PageTable is a four-level radix page table with explicit physical
// placement of every table node, so walkers generate real memory
// traffic at real addresses.
type PageTable struct {
	alloc FrameAllocator
	root  *node
	// Pages counts mapped translations.
	Pages int
}

// NewPageTable creates a table whose root lives on GPU 0.
func NewPageTable(alloc FrameAllocator) *PageTable {
	return &PageTable{
		alloc: alloc,
		root:  &node{addr: alloc.AllocFrame(0), children: make(map[int]*node)},
	}
}

func levelIndex(vpn uint64, level int) int {
	shift := uint(BitsPerLevel * (Levels - 1 - level))
	return int((vpn >> shift) & IndexMask)
}

// Map installs a translation vpn -> physBase. leafGPU chooses where a
// newly created leaf PTE page is placed; it is ignored when the 2MB
// region's leaf page already exists (first-page-wins co-location).
// Interior nodes are placed on GPU 0. Remapping a mapped VPN panics.
func (pt *PageTable) Map(vpn, physBase uint64, leafGPU int) {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		idx := levelIndex(vpn, level)
		child, ok := n.children[idx]
		if !ok {
			gpu := 0
			if level == Levels-2 {
				gpu = leafGPU // the child is the leaf PTE page
			}
			child = &node{addr: pt.alloc.AllocFrame(gpu)}
			if level == Levels-2 {
				child.ptes = make(map[int]uint64)
			} else {
				child.children = make(map[int]*node)
			}
			n.children[idx] = child
		}
		n = child
	}
	idx := levelIndex(vpn, Levels-1)
	if _, dup := n.ptes[idx]; dup {
		panic(fmt.Sprintf("vm: VPN %#x mapped twice", vpn))
	}
	n.ptes[idx] = physBase
	pt.Pages++
}

// WalkStep is one memory access of a page table walk.
type WalkStep struct {
	// Addr is the physical address of the PTE read at this level.
	Addr uint64
	// Level is the radix level (0 = root).
	Level int
	// NodeAddr is the base address of the node holding the PTE; the
	// page walk cache keys on it for subsequent walks.
	NodeAddr uint64
}

// Walk fills steps with the memory accesses that translate vpn, root
// level first, and returns the mapped physical page base. The steps
// live in the caller's array (the GMMU keeps one per recycled walk), so
// a walk allocates nothing. ok is false for unmapped addresses; steps
// then holds the accesses down to the missing entry.
func (pt *PageTable) Walk(vpn uint64, steps *[Levels]WalkStep) (physBase uint64, ok bool) {
	n := pt.root
	for level := 0; level < Levels; level++ {
		idx := levelIndex(vpn, level)
		steps[level] = WalkStep{
			Addr:     n.addr + uint64(idx*PTEBytes),
			Level:    level,
			NodeAddr: n.addr,
		}
		if level == Levels-1 {
			pb, found := n.ptes[idx]
			return pb, found
		}
		child, found := n.children[idx]
		if !found {
			return 0, false
		}
		n = child
	}
	return 0, false // unreachable
}

// LeafNodeAddr returns the physical base address of the leaf PTE page
// covering vpn (for placement invariants in tests). ok is false when
// the region has no leaf page yet.
func (pt *PageTable) LeafNodeAddr(vpn uint64) (uint64, bool) {
	n := pt.root
	for level := 0; level < Levels-1; level++ {
		child, found := n.children[levelIndex(vpn, level)]
		if !found {
			return 0, false
		}
		n = child
	}
	return n.addr, true
}

// Translate is the zero-latency functional translation (for loaders and
// checks; timed components use Walk).
func (pt *PageTable) Translate(vaddr uint64) (uint64, bool) {
	var steps [Levels]WalkStep
	base, ok := pt.Walk(VPN(vaddr), &steps)
	if !ok {
		return 0, false
	}
	return base + (vaddr & (PageBytes - 1)), true
}
