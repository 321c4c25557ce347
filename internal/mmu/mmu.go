// Package mmu implements the OS-side memory-management structures the
// tagless cache modifies: per-process page tables whose entries carry the
// paper's three extra flag bits (Section 3.2) and a physical-frame
// allocator for demand paging.
//
//   - Valid-in-Cache (VC): the page currently resides in the DRAM cache and
//     Frame holds a cache address (block number).
//   - Non-Cacheable (NC): the page bypasses the DRAM cache; Frame always
//     holds the physical page number.
//   - Pending-Update (PU): a cache fill for this page is in flight;
//     concurrent TLB misses must busy-wait rather than issue duplicates.
package mmu

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"taglessdram/internal/flat"
)

// ErrOutOfMemory is returned when the backing store has no free frames.
var ErrOutOfMemory = errors.New("mmu: out of physical memory")

// WalkLevels is the depth of the radix page table the timing walk models
// assume (an x86-64-style four-level table with 9 index bits per level).
const WalkLevels = 4

// LevelPrefix returns the vpn bits that identify the page-table page a
// walk visits at the given level (0 = root). Deeper levels keep more of
// the vpn, so fewer walks share their lower-level tables — which is what
// gives the MMU's page-walk caches their upper-level locality.
func LevelPrefix(vpn uint64, level int) uint64 {
	return vpn >> (9 * uint(WalkLevels-1-level))
}

// PTE is a page-table entry. Frame is a physical page number (PPN) unless
// VC is set, in which case it is a cache block number (CA).
type PTE struct {
	Frame uint64
	VC    bool // valid-in-cache
	NC    bool // non-cacheable
	PU    bool // pending update
	// Super marks a superpage mapping: the PTE covers a whole aligned
	// region and Frame is the region's base PPN (or region CA when VC is
	// set). Section 6 extends the GIPT with matching page-type bits.
	Super bool
}

// String renders the entry like the paper's figures: "(VC,NC)=(1,0) → CA-3".
func (p PTE) String() string {
	kind := "PA"
	if p.VC {
		kind = "CA"
	}
	return fmt.Sprintf("(VC,NC)=(%d,%d) %s-%d", b2i(p.VC), b2i(p.NC), kind, p.Frame)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FrameAllocator hands out physical page frames from a fixed-size pool,
// modeling the off-package DRAM capacity.
type FrameAllocator struct {
	next uint64
	max  uint64
	free []uint64
}

// NewFrameAllocator returns an allocator over `frames` physical pages.
func NewFrameAllocator(frames uint64) *FrameAllocator {
	return &FrameAllocator{max: frames}
}

// AllocContiguous returns the base of n physically contiguous frames, as
// superpage mappings require. Contiguous ranges come from the bump region
// only (the free list may be fragmented).
func (a *FrameAllocator) AllocContiguous(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("mmu: zero-length contiguous allocation")
	}
	if a.next+n > a.max {
		return 0, ErrOutOfMemory
	}
	base := a.next
	a.next += n
	return base, nil
}

// Alloc returns a free physical page number.
func (a *FrameAllocator) Alloc() (uint64, error) {
	if n := len(a.free); n > 0 {
		ppn := a.free[n-1]
		a.free = a.free[:n-1]
		return ppn, nil
	}
	if a.next >= a.max {
		return 0, ErrOutOfMemory
	}
	ppn := a.next
	a.next++
	return ppn, nil
}

// Free returns a frame to the pool.
func (a *FrameAllocator) Free(ppn uint64) { a.free = append(a.free, ppn) }

// InUse returns the number of allocated frames.
func (a *FrameAllocator) InUse() uint64 { return a.next - uint64(len(a.free)) }

// Capacity returns the total number of frames.
func (a *FrameAllocator) Capacity() uint64 { return a.max }

// Leaf geometry of the two-level radix table: each leaf arena covers an
// aligned block of 512 virtual pages (2MB of address space), mirroring an
// x86-64 last-level page-table page.
const (
	leafBits  = 9
	leafPages = 1 << leafBits
	leafMask  = leafPages - 1
)

// ptLeaf is one arena of value PTEs. Leaves are allocated once and never
// move or shrink, so &leaf.ptes[i] pointers handed out by Walk/Lookup stay
// valid for the table's lifetime — the controller and GIPT rely on PTE
// pointer stability (pendings are keyed by *PTE).
type ptLeaf struct {
	base    uint64 // vpn >> leafBits
	present [leafPages / 64]uint64
	ptes    [leafPages]PTE
}

func (l *ptLeaf) entry(vpn uint64) (*PTE, bool) {
	off := vpn & leafMask
	if l.present[off>>6]&(1<<(off&63)) == 0 {
		return nil, false
	}
	return &l.ptes[off], true
}

func (l *ptLeaf) insert(vpn uint64, pte PTE) *PTE {
	off := vpn & leafMask
	l.present[off>>6] |= 1 << (off & 63)
	l.ptes[off] = pte
	return &l.ptes[off]
}

// PageTable maps virtual page numbers to PTEs for one address space.
// Multi-threaded workloads share one PageTable across cores (the paper
// notes shared pages within a process cause no aliasing); multi-programmed
// workloads get one PageTable per core, sharing a FrameAllocator.
//
// The table is a two-level radix structure: a sparse root keyed by the high
// vpn bits and leaf arenas of value PTEs, with a last-leaf memo so the hot
// translation path resolves repeated and spatially adjacent vpns without a
// map probe. Entries are never unmapped, which is what makes both the memo
// and the handed-out PTE pointers safe.
type PageTable struct {
	ASID  int
	alloc *FrameAllocator
	root  map[uint64]*ptLeaf
	last  *ptLeaf // most recently resolved leaf
	pages int
}

// NewPageTable creates an empty address space backed by alloc.
func NewPageTable(asid int, alloc *FrameAllocator) *PageTable {
	if alloc == nil {
		panic("mmu: nil frame allocator")
	}
	return &PageTable{ASID: asid, alloc: alloc, root: make(map[uint64]*ptLeaf)}
}

// leaf returns the leaf covering vpn, or nil when none exists.
func (pt *PageTable) leaf(vpn uint64) *ptLeaf {
	idx := vpn >> leafBits
	if l := pt.last; l != nil && l.base == idx {
		return l
	}
	l := pt.root[idx]
	if l != nil {
		pt.last = l
	}
	return l
}

// leafOrNew returns the leaf covering vpn, creating it if needed.
func (pt *PageTable) leafOrNew(vpn uint64) *ptLeaf {
	idx := vpn >> leafBits
	if l := pt.last; l != nil && l.base == idx {
		return l
	}
	l := pt.root[idx]
	if l == nil {
		l = &ptLeaf{base: idx}
		pt.root[idx] = l
	}
	pt.last = l
	return l
}

// Walk returns the PTE for vpn, allocating a physical frame on first touch
// (demand paging). The returned pointer aliases the table: the TLB miss
// handler mutates it in place exactly as the paper's handler rewrites the
// PTE during cache fills and evictions.
func (pt *PageTable) Walk(vpn uint64) (*PTE, error) {
	l := pt.leafOrNew(vpn)
	if pte, ok := l.entry(vpn); ok {
		return pte, nil
	}
	ppn, err := pt.alloc.Alloc()
	if err != nil {
		return nil, err
	}
	pt.pages++
	return l.insert(vpn, PTE{Frame: ppn}), nil
}

// WalkRegion returns the superpage PTE covering the aligned region of
// `pages` pages that contains vpn, allocating physically contiguous frames
// on first touch. The returned PTE is shared by every page of the region.
func (pt *PageTable) WalkRegion(vpn uint64, pages uint64) (*PTE, error) {
	base := vpn &^ (pages - 1)
	l := pt.leafOrNew(base)
	if pte, ok := l.entry(base); ok {
		if !pte.Super {
			return nil, fmt.Errorf("mmu: page %d already mapped at 4KB granularity", base)
		}
		return pte, nil
	}
	ppn, err := pt.alloc.AllocContiguous(pages)
	if err != nil {
		return nil, err
	}
	pt.pages++
	return l.insert(base, PTE{Frame: ppn, Super: true}), nil
}

// MapShared maps vpn to an existing physical frame owned elsewhere (an
// inter-process shared page). The frame's lifetime is the caller's concern;
// this table only references it. Mapping an already-mapped vpn is an error.
func (pt *PageTable) MapShared(vpn, ppn uint64) (*PTE, error) {
	l := pt.leafOrNew(vpn)
	if _, ok := l.entry(vpn); ok {
		return nil, fmt.Errorf("mmu: page %d already mapped", vpn)
	}
	pt.pages++
	return l.insert(vpn, PTE{Frame: ppn}), nil
}

// Lookup returns the PTE for vpn without allocating.
func (pt *PageTable) Lookup(vpn uint64) (*PTE, bool) {
	l := pt.leaf(vpn)
	if l == nil {
		return nil, false
	}
	return l.entry(vpn)
}

// SetNonCacheable pre-marks vpn as bypassing the DRAM cache (Section 3.5),
// allocating its frame if needed.
func (pt *PageTable) SetNonCacheable(vpn uint64) error {
	pte, err := pt.Walk(vpn)
	if err != nil {
		return err
	}
	if pte.VC {
		return fmt.Errorf("mmu: page %d is cached; evict before marking non-cacheable", vpn)
	}
	pte.NC = true
	return nil
}

// Pages returns the number of mapped pages.
func (pt *PageTable) Pages() int { return pt.pages }

// Range calls fn for every mapped entry in ascending vpn order (for
// superpage entries, the region-base vpn they were inserted under). The
// pointers alias the table, like Walk's. Iteration stops when fn returns
// false.
func (pt *PageTable) Range(fn func(vpn uint64, pte *PTE) bool) {
	for _, b := range pt.bases() {
		l := pt.root[b]
		for w, set := range l.present {
			for set != 0 {
				off := w<<6 + bits.TrailingZeros64(set)
				if !fn(l.base<<leafBits|uint64(off), &l.ptes[off]) {
					return
				}
				set &= set - 1
			}
		}
	}
}

// bases lists the table's leaf bases in ascending order.
func (pt *PageTable) bases() []uint64 {
	bases := make([]uint64, 0, len(pt.root))
	for b := range pt.root {
		bases = append(bases, b)
	}
	slices.Sort(bases)
	return bases
}

// leafMinBytes is the image size of a leaf with nothing present.
const leafMinBytes = 1 + leafPages/64

// Visit hands the table's checkpoint state to c: its leaves in ascending
// base order — each its base, its presence bitmap and the entries
// present. A decoder builds fresh leaves, so
// PTE pointers handed out earlier do not survive and callers re-resolve
// them; it fails unless the bases ascend strictly, and it rebuilds the
// page count. An entry's PU bit is not part of the image: a checkpoint is
// taken with no fill in flight.
func (pt *PageTable) Visit(c *flat.Codec) {
	var bases []uint64
	if !c.Decoding() {
		bases = pt.bases()
	}
	n := c.Count(len(bases), leafMinBytes)
	if c.Decoding() {
		pt.root, pt.last, pt.pages = make(map[uint64]*ptLeaf, n), nil, 0
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		l := new(ptLeaf)
		if !c.Decoding() {
			l = pt.root[bases[i]]
		}
		c.U64(&l.base)
		for w := range l.present {
			c.U64(&l.present[w])
			for set := l.present[w]; set != 0; set &= set - 1 {
				p := &l.ptes[w<<6+bits.TrailingZeros64(set)]
				c.U64(&p.Frame)
				c.Bool(&p.VC)
				c.Bool(&p.NC)
				c.Bool(&p.Super)
			}
			if c.Decoding() {
				pt.pages += bits.OnesCount64(l.present[w])
			}
		}
		if c.Decoding() {
			if i > 0 && l.base <= bases[i-1] {
				c.Fail(fmt.Errorf("mmu: leaf %d does not ascend", l.base))
			}
			pt.root[l.base] = l
			bases = append(bases, l.base)
		}
	}
}

// Visit hands the allocator's checkpoint state to c: the bump pointer and
// the free list. The capacity is a construction input.
func (a *FrameAllocator) Visit(c *flat.Codec) {
	c.U64(&a.next)
	flat.Uints(c, &a.free)
}

// CachedPages counts entries with VC set — used to validate the invariant
// that it always equals the number of GIPT entries pointing at this table.
func (pt *PageTable) CachedPages() int {
	n := 0
	for _, l := range pt.root {
		for w, set := range l.present {
			for set != 0 {
				off := w<<6 + bits.TrailingZeros64(set)
				if l.ptes[off].VC {
					n++
				}
				set &= set - 1
			}
		}
	}
	return n
}
