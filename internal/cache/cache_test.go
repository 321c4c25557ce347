package cache

import (
	"testing"
	"testing/quick"

	"taglessdram/internal/config"
	"taglessdram/internal/flat"
)

// tiny returns a 4-set, 2-way, 64B-line cache (512B) for deterministic tests.
func tiny() *Cache {
	return New(config.CacheConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, LatencyCycle: 2})
}

// has reports whether addr is resident.
func has(c *Cache, addr uint64) bool {
	_, ok := c.Lookup(addr)
	return ok
}

// occupancy counts the valid lines.
func occupancy(c *Cache) int {
	n := 0
	c.Each(func(_, _ uint64) { n++ })
	return n
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	hit, _, _ := c.Access(0x1000, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset, still hits.
	hit, _, _ = c.Access(0x103F, false)
	if !hit {
		t.Fatal("same-line access missed")
	}
	if n := occupancy(c); n != 1 {
		t.Fatalf("occupancy = %d, want 1", n)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Three lines mapping to set 0 in a 2-way cache: set stride is 4*64=256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU, b is LRU
	// A lookup is a peek: b stays LRU.
	if !has(c, b) {
		t.Fatal("b missing")
	}
	hit, victim, hasVictim := c.Access(d, false)
	if hit {
		t.Fatal("conflicting access hit")
	}
	if !hasVictim || victim.Addr != b {
		t.Fatalf("victim = %+v (has=%v), want addr %d", victim, hasVictim, b)
	}
	// a must still be present, b gone.
	if !has(c, a) || has(c, b) || !has(c, d) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	c := tiny()
	c.Access(0, true) // dirty
	c.Access(256, false)
	_, victim, hasVictim := c.Access(512, false) // evicts line 0 (LRU)
	if !hasVictim || !victim.Dirty || victim.Addr != 0 {
		t.Fatalf("victim = %+v (has=%v), want dirty line 0", victim, hasVictim)
	}
	// The clean line displaced next is not a write-back.
	if _, victim, _ := c.Access(768, false); victim.Dirty {
		t.Fatalf("clean victim %+v reported dirty", victim)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := tiny()
	c.Access(0, false)
	c.Access(0, true) // mark dirty on hit
	_, dirty := c.Invalidate(0)
	if !dirty {
		t.Fatal("write hit did not set dirty bit")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Access(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("invalidate = %v,%v, want true,true", present, dirty)
	}
	if has(c, 0x40) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := New(config.CacheConfig{SizeBytes: 8 * config.KB, Ways: 4, LineBytes: 64, LatencyCycle: 2})
	// Touch all 8 lines of a 512-byte region, two of them dirty.
	for off := uint64(0); off < 512; off += 64 {
		c.Access(0x2000+off, off == 0 || off == 128)
	}
	dropped, dirty := c.InvalidateRange(0x2000, 512)
	if dropped != 8 || dirty != 2 {
		t.Fatalf("dropped=%d dirty=%d, want 8,2", dropped, dirty)
	}
	if n := occupancy(c); n != 0 {
		t.Fatalf("occupancy = %d, want 0", n)
	}
}

// TestTouch: a hit refreshes the line's recency as a read Access does,
// leaving its dirty bit alone, and a miss installs nothing.
func TestTouch(t *testing.T) {
	c := tiny()
	if _, ok := c.Touch(0); ok || occupancy(c) != 0 {
		t.Fatal("a touch of an empty cache hit or installed a line")
	}
	// Two lines of set 0; 0 is the older and dirty.
	c.Access(0, true)
	c.Access(256, false)
	line, ok := c.Touch(0x3F)
	if want, _ := c.Lookup(0); !ok || line != want {
		t.Fatalf("touch = %d,%v, want line %d", line, ok, want)
	}
	// 256 is now the LRU victim; 0 stays and is still dirty.
	if _, victim, _ := c.Access(512, false); victim.Addr != 256 {
		t.Fatalf("victim = %+v, want 256: the touch did not refresh 0", victim)
	}
	if _, dirty := c.Invalidate(0); !dirty {
		t.Fatal("the touch cleared the dirty bit")
	}
}

func TestLatencyAndConfig(t *testing.T) {
	c := tiny()
	if c.Latency() != 2 {
		t.Fatalf("latency = %d", c.Latency())
	}
	if c.Config().Ways != 2 {
		t.Fatalf("config = %+v", c.Config())
	}
}

func TestDefaultGeometries(t *testing.T) {
	sc := config.Default()
	l1 := New(sc.L1D)
	l2 := New(sc.L2)
	if occupancy(l1) != 0 || occupancy(l2) != 0 {
		t.Fatal("new caches should be empty")
	}
	// Fill L1 past capacity: occupancy saturates at line count.
	lines := int(sc.L1D.SizeBytes) / sc.L1D.LineBytes
	for i := 0; i < 2*lines; i++ {
		l1.Access(uint64(i*64), false)
	}
	if n := occupancy(l1); n != lines {
		t.Fatalf("L1 occupancy = %d, want %d", n, lines)
	}
}

func TestNewPanics(t *testing.T) {
	mustPanic := func(name string, cfg config.CacheConfig) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		New(cfg)
	}
	mustPanic("zero size", config.CacheConfig{SizeBytes: 0, Ways: 2, LineBytes: 64})
	mustPanic("npot line", config.CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 48})
}

// Property: occupancy never exceeds capacity, and every miss that
// displaced no victim added exactly one line.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := tiny()
		fills := 0
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			if hit, _, hasVictim := c.Access(uint64(a), w); !hit && !hasVictim {
				fills++
			}
		}
		return occupancy(c) == fills && fills <= 8 // 4 sets * 2 ways
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: immediately after any access, the line is present.
func TestAccessInsertsProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := tiny()
		for _, a := range addrs {
			c.Access(uint64(a), false)
			if !has(c, uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a victim is never from a different set than the inserted line.
func TestVictimSameSetProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tiny()
		for _, a := range addrs {
			addr := uint64(a)
			_, victim, has := c.Access(addr, false)
			if has {
				// Set index = (addr/64) % 4.
				if (victim.Addr/64)%4 != (addr/64)%4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarkDirtySilent(t *testing.T) {
	c := tiny()
	if c.MarkDirty(0x40) {
		t.Fatal("marked absent line dirty")
	}
	// Two lines of set 1; 0x40 is the older.
	c.Access(0x40, false)
	c.Access(0x140, false)
	if !c.MarkDirty(0x40) {
		t.Fatal("mark dirty missed resident line")
	}
	// MarkDirty leaves recency alone, so 0x40 is still the LRU victim,
	// now dirty.
	_, victim, hasVictim := c.Access(0x240, false)
	if !hasVictim || victim.Addr != 0x40 || !victim.Dirty {
		t.Fatalf("victim = %+v (has=%v), want dirty line 0x40", victim, hasVictim)
	}
}

// TestFreshImageSize bounds an empty cache's checkpoint image: an empty
// way costs one byte for its tag and one for its recency word, plus a
// small header (line count, LRU clock, memo).
func TestFreshImageSize(t *testing.T) {
	cfg := config.Default().L2
	c := New(cfg)
	img, err := flat.Encode(nil, c.Visit)
	if err != nil {
		t.Fatal(err)
	}
	lines := int(cfg.SizeBytes) / cfg.LineBytes
	if max := 2*lines + 16; len(img) > max {
		t.Fatalf("an empty %d-line cache renders %d bytes, want at most %d", lines, len(img), max)
	}
	twin := New(cfg)
	if err := flat.Decode(img, twin.Visit); err != nil {
		t.Fatal(err)
	}
	if n := occupancy(twin); n != 0 {
		t.Fatalf("the decoded empty image holds %d lines", n)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 3 sets x 2 ways: the modulo indexing path.
	c := New(config.CacheConfig{SizeBytes: 384, Ways: 2, LineBytes: 64, LatencyCycle: 1})
	for i := uint64(0); i < 12; i++ {
		c.Access(i*64, false)
		if !has(c, i*64) {
			t.Fatalf("line %d missing right after access", i)
		}
	}
	if n := occupancy(c); n > 6 {
		t.Fatalf("occupancy %d exceeds capacity 6", n)
	}
}

// Property: the line Access, Lookup and Each name is set × ways + way —
// for the 2-way tiny cache, 2s or 2s+1 for a block of set s — and no two
// resident lines share one.
func TestLineIndexProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tiny()
		for _, a := range addrs {
			c.Access(uint64(a), false)
			if line, ok := c.Lookup(uint64(a)); !ok || line != c.Line() || line/2 != uint64(a)/64%4 {
				return false
			}
		}
		seen := map[uint64]bool{}
		ok := true
		c.Each(func(line, addr uint64) {
			at, _ := c.Lookup(addr)
			ok = ok && at == line && !seen[line]
			seen[line] = true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDirectMappedNonPowerOfTwoSets is the block-based DRAM cache's
// geometry: one way and a set count that is not a power of two, so a
// block's line is its block number modulo the set count and two blocks a
// set count apart conflict, the older returned as a dirty victim with its
// address.
func TestDirectMappedNonPowerOfTwoSets(t *testing.T) {
	const sets = 9
	c := New(config.CacheConfig{SizeBytes: sets * 64, Ways: 1, LineBytes: 64})
	if c.Config().Sets() != sets {
		t.Fatalf("sets = %d, want %d", c.Config().Sets(), sets)
	}
	a, b := uint64(0x1000), uint64(0x1000+sets*64)
	c.Access(a, true)
	if c.Line() != 0x1000/64%sets {
		t.Fatalf("line = %d, want block %% %d = %d", c.Line(), sets, 0x1000/64%sets)
	}
	hit, victim, hasVictim := c.Access(b, false)
	if hit || !hasVictim || victim.Addr != a || !victim.Dirty {
		t.Fatalf("access %#x: hit %v, victim %+v (has=%v), want dirty victim %#x", b, hit, victim, hasVictim, a)
	}
	if has(c, a) || !has(c, b) {
		t.Fatal("direct-mapped replacement wrong")
	}
	// The clean block displaced next is not a write-back.
	if _, victim, _ := c.Access(a, false); victim.Dirty {
		t.Fatalf("clean victim %+v reported dirty", victim)
	}
}

// TestPageSizedLines is the SRAM-tag DRAM cache's geometry: lines of one
// page, keyed by page address. Lines of different pages fill distinct
// frames, the LRU page is the victim, and a page-sized range
// invalidation drops exactly its page.
func TestPageSizedLines(t *testing.T) {
	c := New(config.CacheConfig{SizeBytes: 8 * config.PageSize, Ways: 2, LineBytes: config.PageSize})
	page := func(ppn uint64) uint64 { return ppn * config.PageSize }
	c.Access(page(1), false)
	c.Access(page(5)+100, true) // pages 1 and 5 share set 1
	if line, _ := c.Lookup(page(1) + 4095); line/2 != 1 {
		t.Fatalf("page 1 in line %d, want set 1", line)
	}
	c.Access(page(1), false) // page 5 is now LRU
	_, victim, hasVictim := c.Access(page(9), false)
	if !hasVictim || victim.Addr != page(5) || !victim.Dirty {
		t.Fatalf("victim = %+v (has=%v), want dirty page 5", victim, hasVictim)
	}
	if dropped, _ := c.InvalidateRange(page(9), config.PageSize); dropped != 1 || has(c, page(9)) || !has(c, page(1)) {
		t.Fatalf("invalidating page 9 dropped %d lines", dropped)
	}
}

// TestInvalidateRangeAfterDecode: the page-group counts InvalidateRange
// skips by are derived from the tags, so a decode must not leave a
// count behind. The twin range-invalidates once while empty (building a
// table of zeros), then decodes an image holding a page's lines; the
// next range invalidation must still find all of them.
func TestInvalidateRangeAfterDecode(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 8 * config.KB, Ways: 4, LineBytes: 64}
	c := New(cfg)
	for off := uint64(0); off < 512; off += 64 {
		c.Access(0x2000+off, off == 64)
	}
	img, err := flat.Encode(nil, c.Visit)
	if err != nil {
		t.Fatal(err)
	}
	twin := New(cfg)
	if dropped, _ := twin.InvalidateRange(0x2000, 512); dropped != 0 {
		t.Fatalf("an empty cache dropped %d lines", dropped)
	}
	if err := flat.Decode(img, twin.Visit); err != nil {
		t.Fatal(err)
	}
	if dropped, dirty := twin.InvalidateRange(0x2000, 512); dropped != 8 || dirty != 1 {
		t.Fatalf("dropped=%d dirty=%d after the decode, want 8,1", dropped, dirty)
	}
}

// TestVisitRefusesForgedLines: a decoded image must put each line in its
// own set, once, stamped no later than the clock, and leave empty ways
// zero. A 2-way, 8-set cache's image is forged to break each rule in
// turn — block 1 (set 1) in set 0, block 0 in both ways of set 0, and
// so on; each must fail to decode, and the unforged image must load.
func TestVisitRefusesForgedLines(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 16 * 64, Ways: 2, LineBytes: 64}
	real := New(cfg)
	real.Access(0, true)
	real.Access(64, false)
	img, err := flat.Encode(nil, real.Visit)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Decode(img, New(cfg).Visit); err != nil {
		t.Fatalf("the real image: %v", err)
	}
	for name, forge := range map[string]func(c *Cache){
		"block of another set": func(c *Cache) { c.tags[1] = 1 },
		"block held twice":     func(c *Cache) { c.tags[1] = 0 },
		"block past any address": func(c *Cache) {
			c.tags[2] = 1<<60 | 1 // maps to set 1, but no 64-bit address has this block
		},
		"stamp after the clock":   func(c *Cache) { c.used[0] = (c.tick + 1) << 1 },
		"recency on an empty way": func(c *Cache) { c.used[4] = 1 },
	} {
		t.Run(name, func(t *testing.T) {
			c := New(cfg)
			if err := flat.Decode(img, c.Visit); err != nil {
				t.Fatal(err)
			}
			forge(c)
			forged, err := flat.Encode(nil, c.Visit)
			if err != nil {
				t.Fatal(err)
			}
			if err := flat.Decode(forged, New(cfg).Visit); err == nil {
				t.Fatal("the forged image decoded")
			}
		})
	}
}
