// Package dramcache provides the baseline DRAM-cache organizations the
// paper compares against (Section 4): the page-based cache with an on-die
// SRAM tag array ("SRAM"), and the OS-oblivious bank-interleaved
// heterogeneous memory ("BI"). The proposed tagless organization lives in
// internal/core; the NoL3 and Ideal settings need no state.
package dramcache

import (
	"fmt"

	"taglessdram/internal/flat"
)

// Victim describes a page displaced from the SRAM-tag cache.
type Victim struct {
	PPN   uint64 // physical page written back
	Slot  uint64 // cache slot it occupied
	Dirty bool
}

type pslot struct {
	ppn   uint64
	valid bool
	dirty bool
	used  uint64
}

// TagStats counts the SRAM tag array's activity.
type TagStats struct {
	Lookups   uint64
	Hits      uint64
	MissFills uint64
	Evictions uint64
}

// HitRate returns hits/lookups, or 0 before any lookup.
func (s *TagStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// EnergyPJ returns the tag-array energy the counts stand for: every
// lookup reads all ways of one set; fills rewrite one entry. The
// per-access energy model follows the CACTI-style scaling the paper's
// energy numbers build on.
func (s *TagStats) EnergyPJ() float64 {
	const readPJ = 18.0 // one N-way tag-set read (4MB SRAM array)
	const writePJ = 6.0 // one tag entry update
	return float64(s.Lookups)*readPJ + float64(s.MissFills+s.Evictions)*writePJ
}

// PageCache models the SRAM-tag page-based DRAM cache: an N-way
// set-associative array of page frames with LRU replacement, whose tag
// array lives in on-die SRAM and costs TagLatency cycles on every L3
// access, hit or miss (Section 2.2).
type PageCache struct {
	ways       int
	sets       [][]pslot
	tick       uint64
	tagLatency int
	st         *TagStats
}

// NewPageCache builds a cache of `pages` page frames with the given
// associativity. Tag latency comes from the Table 6 model for the
// corresponding capacity. The cache counts its activity into st; a nil
// st gives it a private one.
func NewPageCache(pages, ways int, tagLatency int, st *TagStats) *PageCache {
	if pages <= 0 || ways <= 0 || pages%ways != 0 {
		panic(fmt.Sprintf("dramcache: bad geometry pages=%d ways=%d", pages, ways))
	}
	if tagLatency < 0 {
		panic("dramcache: negative tag latency")
	}
	if st == nil {
		st = new(TagStats)
	}
	c := &PageCache{ways: ways, sets: make([][]pslot, pages/ways), tagLatency: tagLatency, st: st}
	for i := range c.sets {
		c.sets[i] = make([]pslot, ways)
	}
	return c
}

// TagLatency returns the SRAM tag-array access cost in cycles.
func (c *PageCache) TagLatency() int { return c.tagLatency }

// Pages returns the cache capacity in page frames.
func (c *PageCache) Pages() int { return len(c.sets) * c.ways }

func (c *PageCache) set(ppn uint64) (int, []pslot) {
	si := int(ppn % uint64(len(c.sets)))
	return si, c.sets[si]
}

// slotIndex converts (set, way) to the flat cache-frame index, which is the
// page's address within the in-package device.
func (c *PageCache) slotIndex(si, way int) uint64 {
	return uint64(si*c.ways + way)
}

// Lookup performs the tag check for ppn. On a hit it refreshes LRU state,
// marks dirtiness for writes, and returns the page's cache slot.
func (c *PageCache) Lookup(ppn uint64, write bool) (slot uint64, hit bool) {
	c.st.Lookups++
	c.tick++
	si, set := c.set(ppn)
	for w := range set {
		s := &set[w]
		if s.valid && s.ppn == ppn {
			c.st.Hits++
			s.used = c.tick
			if write {
				s.dirty = true
			}
			return c.slotIndex(si, w), true
		}
	}
	return 0, false
}

// Fill allocates a frame for ppn after a miss, returning the slot and any
// displaced victim. The caller models the fill and write-back traffic.
func (c *PageCache) Fill(ppn uint64, write bool) (slot uint64, victim Victim, hasVictim bool) {
	c.tick++
	c.st.MissFills++
	si, set := c.set(ppn)
	vi := 0
	for w := range set {
		if !set[w].valid {
			vi = w
			break
		}
		if set[w].used < set[vi].used {
			vi = w
		}
	}
	s := &set[vi]
	if s.valid {
		hasVictim = true
		victim = Victim{PPN: s.ppn, Slot: c.slotIndex(si, vi), Dirty: s.dirty}
		c.st.Evictions++
	}
	*s = pslot{ppn: ppn, valid: true, dirty: write, used: c.tick}
	return c.slotIndex(si, vi), victim, hasVictim
}

// Peek returns the slot holding ppn without perturbing LRU state or
// counters (used to route write-back traffic).
func (c *PageCache) Peek(ppn uint64) (slot uint64, ok bool) {
	si, set := c.set(ppn)
	for w := range set {
		if set[w].valid && set[w].ppn == ppn {
			return c.slotIndex(si, w), true
		}
	}
	return 0, false
}

// MarkDirty sets ppn's dirty bit if resident, reporting whether it was.
func (c *PageCache) MarkDirty(ppn uint64) bool {
	_, set := c.set(ppn)
	for w := range set {
		if set[w].valid && set[w].ppn == ppn {
			set[w].dirty = true
			return true
		}
	}
	return false
}

// Contains reports residence without perturbing LRU state.
func (c *PageCache) Contains(ppn uint64) bool {
	_, set := c.set(ppn)
	for w := range set {
		if set[w].valid && set[w].ppn == ppn {
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid page frames.
func (c *PageCache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for w := range set {
			if set[w].valid {
				n++
			}
		}
	}
	return n
}

// Visit hands the cache's checkpoint state to c: every frame's page,
// valid and dirty bits and LRU stamp in set order, and the LRU clock.
// Geometry is a construction input; the frame count must match.
func (c *PageCache) Visit(fc *flat.Codec) {
	fc.Fixed(c.Pages(), "page-cache frames")
	for _, set := range c.sets {
		for w := range set {
			s := &set[w]
			fc.U64(&s.ppn)
			fc.Bool(&s.valid)
			fc.Bool(&s.dirty)
			fc.U64(&s.used)
		}
	}
	fc.U64(&c.tick)
}

// BankInterleaver implements the "BI" heterogeneous-memory baseline: the
// in-package DRAM is mapped into the physical address space and pages are
// interleaved OS-obliviously, so a capacity-proportional fraction of pages
// (1GB of 9GB total = 1/9 by default) lands in the fast region.
type BankInterleaver struct {
	inPkgPages  uint64
	offPkgPages uint64
	stride      uint64 // one in-package page every `stride` pages
}

// NewBankInterleaver builds the mapper from device capacities in pages.
func NewBankInterleaver(inPkgPages, offPkgPages uint64) *BankInterleaver {
	if inPkgPages == 0 || offPkgPages == 0 {
		panic("dramcache: interleaver needs both regions")
	}
	stride := (inPkgPages + offPkgPages + inPkgPages - 1) / inPkgPages
	if stride < 2 {
		stride = 2
	}
	return &BankInterleaver{inPkgPages: inPkgPages, offPkgPages: offPkgPages, stride: stride}
}

// Stride returns the interleave period (one in-package page per stride).
func (b *BankInterleaver) Stride() uint64 { return b.stride }

// Map translates a physical page number to (device-local page, in-package?).
// Page k*stride lives in-package (wrapping within the region); all others
// are off-package.
func (b *BankInterleaver) Map(ppn uint64) (devPage uint64, inPkg bool) {
	if ppn%b.stride == 0 {
		return (ppn / b.stride) % b.inPkgPages, true
	}
	return (ppn - ppn/b.stride - 1) % b.offPkgPages, false
}
