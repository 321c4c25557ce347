// Package cache implements set-associative, write-back, write-allocate
// arrays with LRU replacement: the on-die SRAM caches (L1 I/D and L2), the
// page-walk caches, the TLBs' key arrays (one-byte lines, so a key is a
// line address), and the DRAM-cache organizations' tag arrays — the
// SRAM-tag design's page frames (page-sized lines) and the Alloy design's
// TADs (one way).
//
// The model is functional: Access reports hit/miss and any victim line, and
// the caller charges the configured latency. In the tagless design the
// arrays are indexed and tagged by cache addresses (CA) instead of physical
// addresses (Section 3.1); the model is agnostic — it caches whatever
// address space the caller presents.
//
// The arrays are stored structure-of-arrays: the hit path scans only the
// set's tag words (one cache line for an 8-way set), touching LRU stamps
// and dirty bits only on the way it needs. Invalid ways carry a sentinel
// tag, so presence checks need no separate valid bit.
package cache

import (
	"fmt"
	"slices"

	"taglessdram/internal/config"
	"taglessdram/internal/flat"
)

// invalidTag marks an empty way. Real tags are block numbers (addr >> shift)
// and stay far below 2^63, so the sentinel cannot collide.
const invalidTag = ^uint64(0)

// Victim describes a line displaced by a fill.
type Victim struct {
	Addr  uint64 // base address of the displaced line
	Dirty bool   // needs write-back
}

// Cache is one set-associative array.
type Cache struct {
	cfg   config.CacheConfig
	ways  int
	nsets int
	tags  []uint64 // set-major: tags[si*ways+w]
	// used packs each way's LRU timestamp and dirty bit into one word
	// (tick<<1 | dirty), so the access path touches two arrays instead of
	// three. Timestamps are unique, so the dirty bit never decides a
	// victim comparison.
	used  []uint64
	tick  uint64
	shift uint // log2(line size)
	mask  uint64

	// pageCnt counts resident lines per page group (a page's block number
	// prefix, hashed into a power-of-two table). InvalidateRange consults it
	// to skip the per-line set scans for pages with no resident lines — the
	// overwhelmingly common case when a DRAM-cache page eviction flushes a
	// page that the small on-die cache never held. Hash collisions only ever
	// inflate a count (forcing the scan), never hide a resident line, so the
	// skip is exact. Only the tagless design's L1 and L2 range-invalidate,
	// so the table is built from the tags on the first InvalidateRange and
	// is nil until then; pageShift is zero when the line size does not
	// evenly tile a page, and no table is ever built.
	pageCnt   []uint32
	pageShift uint // log2(lines per page)
	pageMask  uint64

	// Same-line memo: lastIdx is the flat index of the line that served the
	// previous Access. A repeat access to the same block skips the way scan.
	// The memo is only trusted when tags[lastIdx] still holds the block, so
	// evictions and invalidations cannot make it lie.
	lastBlock uint64
	lastIdx   int
}

// New constructs a cache from its configuration.
func New(cfg config.CacheConfig) *Cache {
	nsets := cfg.Sets()
	if nsets <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	n := nsets * cfg.Ways
	c := &Cache{
		cfg:   cfg,
		ways:  cfg.Ways,
		nsets: nsets,
		tags:  make([]uint64, n),
		used:  make([]uint64, n),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for cfg.LineBytes>>c.shift != 1 {
		c.shift++
	}
	c.mask = uint64(nsets - 1)
	if nsets&(nsets-1) != 0 {
		c.mask = 0 // fall back to modulo for non-power-of-two set counts
	}
	if lpp := config.PageSize / cfg.LineBytes; lpp >= 2 && lpp&(lpp-1) == 0 && config.PageSize%cfg.LineBytes == 0 {
		for lpp>>c.pageShift != 1 {
			c.pageShift++
		}
		groups := 1
		for groups < n/2 {
			groups *= 2
		}
		c.pageMask = uint64(groups - 1)
	}
	return c
}

// pageGroup returns the presence-counter slot for a line's block number.
func (c *Cache) pageGroup(tag uint64) *uint32 {
	return &c.pageCnt[tag>>c.pageShift&c.pageMask]
}

// countPages builds the page-group presence counts from the tags.
func (c *Cache) countPages() {
	c.pageCnt = make([]uint32, c.pageMask+1)
	for _, t := range c.tags {
		if t != invalidTag {
			*c.pageGroup(t)++
		}
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// Latency returns the configured hit latency in cycles.
func (c *Cache) Latency() int { return c.cfg.LatencyCycle }

func (c *Cache) index(addr uint64) (setIdx int, tag uint64) {
	block := addr >> c.shift
	return c.setOf(block), block
}

// setOf returns the set a block number maps to.
func (c *Cache) setOf(block uint64) int {
	if c.mask != 0 {
		return int(block & c.mask)
	}
	return int(block % uint64(c.nsets))
}

// Lookup reports whether addr is present, and the line holding it (set ×
// ways + way), without modifying state.
func (c *Cache) Lookup(addr uint64) (line uint64, ok bool) {
	si, tag := c.index(addr)
	base := si * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return uint64(base + w), true
		}
	}
	return 0, false
}

// Line returns the line (set × ways + way) the most recent Access hit or
// filled.
func (c *Cache) Line() uint64 { return uint64(c.lastIdx) }

// Touch reports whether addr is present and the line holding it, like
// Lookup; on a hit it also refreshes the line's recency, as a read Access
// does, and a miss changes nothing. It repeats Access's hit path instead
// of sharing a helper with it: a helper holding that path is too large
// for the compiler to inline, so Access, the hottest call of the accurate
// path, would pay a function call on every hit.
func (c *Cache) Touch(addr uint64) (line uint64, ok bool) {
	block := addr >> c.shift
	i := c.lastIdx
	if block != c.lastBlock || c.tags[i] != block {
		base := c.setOf(block) * c.ways
		w := slices.Index(c.tags[base:base+c.ways], block)
		if w < 0 {
			return 0, false
		}
		i = base + w
		c.lastBlock, c.lastIdx = block, i
	}
	c.tick++
	c.used[i] = c.tick<<1 | c.used[i]&1
	return uint64(i), true
}

// Access performs a load (write=false) or store (write=true). On a miss
// the line is allocated; if a valid line is displaced it is returned as a
// victim (with its dirtiness) so the caller can model the write-back.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, hasVictim bool) {
	c.tick++
	var wbit uint64
	if write {
		wbit = 1
	}
	block := addr >> c.shift
	if block == c.lastBlock && c.tags[c.lastIdx] == block {
		c.used[c.lastIdx] = c.tick<<1 | c.used[c.lastIdx]&1 | wbit
		return true, Victim{}, false
	}
	si, tag := c.index(addr)
	base := si * c.ways
	tags := c.tags[base : base+c.ways]
	used := c.used[base : base+c.ways]
	// Hit path first: a pure equality scan over the set's tag words (one
	// cache line for an 8-way set), touching the recency word only for
	// the way that hit. The victim scan runs only on a miss.
	for w, t := range tags {
		if t == tag {
			c.lastBlock, c.lastIdx = tag, base+w
			used[w] = c.tick<<1 | used[w]&1 | wbit
			return true, Victim{}, false
		}
	}
	// Choose an invalid way, else the LRU way.
	vi, vu := 0, ^uint64(0)
	for w, t := range tags {
		if t == invalidTag {
			vi = w
			break
		}
		if used[w] < vu {
			vi, vu = w, used[w]
		}
	}
	i := base + vi
	if old := c.tags[i]; old != invalidTag {
		hasVictim = true
		victim = Victim{Addr: old << c.shift, Dirty: used[vi]&1 == 1}
		if c.pageCnt != nil {
			*c.pageGroup(old)--
		}
	}
	if c.pageCnt != nil {
		*c.pageGroup(tag)++
	}
	c.tags[i] = tag
	c.used[i] = c.tick<<1 | wbit
	c.lastBlock, c.lastIdx = tag, i
	return false, victim, hasVictim
}

// MarkDirty sets the dirty bit of the line containing addr if present,
// without perturbing LRU state (used to sink write-backs from
// an upper-level cache). It reports whether the line was present.
func (c *Cache) MarkDirty(addr uint64) bool {
	si, tag := c.index(addr)
	base := si * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.used[base+w] |= 1
			return true
		}
	}
	return false
}

// Invalidate drops the line containing addr, returning whether it was
// present and dirty (the caller models the write-back of dirty data).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	si, tag := c.index(addr)
	base := si * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			i := base + w
			present, dirty = true, c.used[i]&1 == 1
			c.tags[i] = invalidTag
			c.used[i] = 0
			if c.pageCnt != nil {
				*c.pageGroup(tag)--
			}
			return present, dirty
		}
	}
	return false, false
}

// InvalidateRange drops every line within [base, base+size) and returns how
// many of the dropped lines were dirty. Used when a DRAM-cache page is
// evicted and its on-die (CA-tagged) lines must be flushed.
func (c *Cache) InvalidateRange(base uint64, size int) (dropped, dirty int) {
	if c.pageCnt == nil && c.pageShift != 0 {
		c.countPages()
	}
	lb := uint64(c.cfg.LineBytes)
	addr, end := base, base+uint64(size)
	for addr < end {
		// First address past the page group containing addr's line.
		next := (addr>>c.shift>>c.pageShift + 1) << c.pageShift << c.shift
		if next > end {
			next = end
		}
		if c.pageCnt != nil && *c.pageGroup(addr >> c.shift) == 0 {
			// No line of this page group is resident: skip the whole group,
			// keeping the stride phase-aligned with base.
			addr += (next - addr + lb - 1) / lb * lb
			continue
		}
		for ; addr < next; addr += lb {
			p, d := c.Invalidate(addr)
			if p {
				dropped++
				if d {
					dirty++
				}
			}
		}
	}
	return dropped, dirty
}

// Each calls fn with the line (set × ways + way) and base address of
// every valid line, in line order.
func (c *Cache) Each(fn func(line, addr uint64)) {
	for i, t := range c.tags {
		if t != invalidTag {
			fn(uint64(i), t<<c.shift)
		}
	}
}

// Visit hands the cache's checkpoint state to c: every way's tag and
// recency word (LRU stamp and dirty bit), the LRU clock and the
// same-line memo. Tags cross one up, so an empty way's all-ones sentinel
// is a single zero byte. Geometry comes from construction: the line
// count must match, and a decoded memo line must exist. A decoded image
// must be one Access, MarkDirty and Invalidate can leave behind: each
// line in its own set and the only copy there, stamped no later than the
// clock, and every empty way's recency word zero. The page-group
// presence counts are derived from the tags, so a decoder drops them and
// the next InvalidateRange rebuilds them.
func (c *Cache) Visit(fc *flat.Codec) {
	fc.Fixed(len(c.tags), "cache lines")
	for i := range c.tags {
		t := c.tags[i] + 1
		fc.U64(&t)
		c.tags[i] = t - 1
		fc.U64(&c.used[i])
	}
	fc.U64(&c.tick)
	fc.U64(&c.lastBlock)
	fc.Int(&c.lastIdx)
	if c.lastIdx < 0 || c.lastIdx >= len(c.tags) {
		fc.Fail(fmt.Errorf("cache: memo line %d outside %d lines", c.lastIdx, len(c.tags)))
	}
	if !fc.Decoding() {
		return
	}
	for i, t := range c.tags {
		set := i / c.ways
		var err error
		switch {
		case t == invalidTag:
			if c.used[i] != 0 {
				err = fmt.Errorf("cache: empty line %d has recency word %#x", i, c.used[i])
			}
		case t<<c.shift>>c.shift != t || c.setOf(t) != set:
			err = fmt.Errorf("cache: line %d holds block %#x of another set", i, t)
		case c.used[i]>>1 > c.tick:
			err = fmt.Errorf("cache: line %d stamped %d, after the clock %d", i, c.used[i]>>1, c.tick)
		case slices.Contains(c.tags[set*c.ways:i], t):
			err = fmt.Errorf("cache: block %#x is held twice in set %d", t, set)
		}
		if err != nil {
			fc.Fail(err)
			return
		}
	}
	c.pageCnt = nil
}
