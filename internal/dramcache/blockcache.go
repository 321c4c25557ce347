package dramcache

import (
	"fmt"

	"taglessdram/internal/flat"
)

// TADBytes is the size of one tag-and-data unit in the block-based cache:
// a 64-byte line plus an 8-byte tag, streamed out of DRAM in one burst as
// in Alloy Cache (Qureshi & Loh, MICRO'12), which the paper uses as its
// block-based reference point (Table 2, Section 7).
const TADBytes = 72

// BlockVictim describes a line displaced from the block cache.
type BlockVictim struct {
	BlockAddr uint64 // physical address of the displaced 64B line
	Dirty     bool
}

// BlockCache models the block-based DRAM cache class of Table 2: a
// direct-mapped cache of 64-byte lines whose tags live in the in-package
// DRAM alongside the data (tags-in-DRAM), so every lookup costs one
// in-package TAD read and hits need no second access. Tag storage consumes
// 8/72 of the device capacity — the scalability problem that motivates the
// tagless design.
//
// The struct is functional (presence, LRU-free direct mapping, dirtiness);
// the caller issues the corresponding DRAM traffic.
type BlockCache struct {
	sets []blockSlot
}

type blockSlot struct {
	tag   uint64
	valid bool
	dirty bool
}

// NewBlockCache builds a block cache backed by capacityBytes of in-package
// DRAM (data + in-DRAM tags).
func NewBlockCache(capacityBytes int64) *BlockCache {
	n := capacityBytes / TADBytes
	if n <= 0 {
		panic(fmt.Sprintf("dramcache: block cache capacity %d too small", capacityBytes))
	}
	return &BlockCache{sets: make([]blockSlot, n)}
}

// Sets returns the number of direct-mapped TAD slots.
func (c *BlockCache) Sets() int { return len(c.sets) }

// DataBytes returns the usable data capacity (excluding in-DRAM tags).
func (c *BlockCache) DataBytes() int64 { return int64(len(c.sets)) * 64 }

// TagBytes returns the in-package capacity consumed by tags.
func (c *BlockCache) TagBytes() int64 { return int64(len(c.sets)) * (TADBytes - 64) }

// slotOf maps a 64B-aligned physical block address to its slot.
func (c *BlockCache) slotOf(blockAddr uint64) (slot uint64, tag uint64) {
	b := blockAddr >> 6
	return b % uint64(len(c.sets)), b
}

// TADAddr returns the in-package device byte address of a slot's TAD.
func (c *BlockCache) TADAddr(slot uint64) uint64 { return slot * TADBytes }

// Lookup checks residence of the block containing addr, marking dirtiness
// on write hits. It returns the slot (whose TAD the caller has just read —
// tag check and data access are one DRAM burst).
func (c *BlockCache) Lookup(addr uint64, write bool) (slot uint64, hit bool) {
	s, tag := c.slotOf(addr)
	sl := &c.sets[s]
	if sl.valid && sl.tag == tag {
		if write {
			sl.dirty = true
		}
		return s, true
	}
	return s, false
}

// Fill installs the block containing addr after a miss, returning any
// displaced dirty victim for write-back.
func (c *BlockCache) Fill(addr uint64, write bool) (slot uint64, victim BlockVictim, hasVictim bool) {
	s, tag := c.slotOf(addr)
	sl := &c.sets[s]
	if sl.valid {
		hasVictim = true
		victim = BlockVictim{BlockAddr: sl.tag << 6, Dirty: sl.dirty}
	}
	*sl = blockSlot{tag: tag, valid: true, dirty: write}
	return s, victim, hasVictim
}

// Contains reports residence without marking dirtiness.
func (c *BlockCache) Contains(addr uint64) bool {
	s, tag := c.slotOf(addr)
	return c.sets[s].valid && c.sets[s].tag == tag
}

// MarkDirty sets the dirty bit if the block is resident, returning the
// slot it occupies so write-back traffic can be routed without a second
// probe.
func (c *BlockCache) MarkDirty(addr uint64) (slot uint64, ok bool) {
	s, tag := c.slotOf(addr)
	if c.sets[s].valid && c.sets[s].tag == tag {
		c.sets[s].dirty = true
		return s, true
	}
	return 0, false
}

// Occupancy returns the number of valid lines.
func (c *BlockCache) Occupancy() int {
	n := 0
	for i := range c.sets {
		if c.sets[i].valid {
			n++
		}
	}
	return n
}

// Visit hands the cache's checkpoint state to c: every slot's tag, valid
// and dirty bits. The slot count is a construction input and must match.
func (c *BlockCache) Visit(fc *flat.Codec) {
	fc.Fixed(len(c.sets), "block-cache slots")
	for i := range c.sets {
		s := &c.sets[i]
		fc.U64(&s.tag)
		fc.Bool(&s.valid)
		fc.Bool(&s.dirty)
	}
}
