// Package dramcache_test checks the arrays behind the tagged DRAM-cache
// baselines as org builds them: the SRAM-tag design's page frames
// (org.NewPageFrames) and Alloy's tag-and-data units (org.NewTADArray),
// both a cache.Cache; the bank-interleave mapping (org.Interleave.MapPage);
// and the factories' refusal of a cache none of them can hold. The
// directory holds tests only: the code is in internal/org and
// internal/cache.
package dramcache_test

import (
	"strings"
	"testing"
	"testing/quick"

	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/org"
)

// small builds the SRAM-tag design's page frames at 4 sets x 2 ways.
func small(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := org.NewPageFrames(8*config.PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// page returns the address page ppn's frame is keyed by.
func page(ppn uint64) uint64 { return ppn * config.PageSize }

// resident reports whether page ppn holds a frame.
func resident(c *cache.Cache, ppn uint64) bool {
	_, ok := c.Lookup(page(ppn))
	return ok
}

// occupancy counts an array's valid lines.
func occupancy(c *cache.Cache) int {
	n := 0
	c.Each(func(_, _ uint64) { n++ })
	return n
}

// TestSlotWithinDevice: pages 1 and 5 map to set 1, so they fill frames
// 2 and 3 (set x ways + way).
func TestSlotWithinDevice(t *testing.T) {
	c := small(t)
	c.Access(page(1), false)
	s1 := c.Line()
	c.Access(page(5), false)
	s2 := c.Line()
	if s1 == s2 || s1/2 != 1 || s2/2 != 1 {
		t.Fatalf("frames = %d,%d, want distinct in set 1", s1, s2)
	}
}

func TestLRUVictim(t *testing.T) {
	c := small(t)
	c.Access(page(0), false) // set 0
	c.Access(page(4), false) // set 0
	c.Access(page(0), false) // the hit leaves page 4 the LRU page
	_, victim, has := c.Access(page(8), false)
	if !has || victim.Addr != page(4) {
		t.Fatalf("victim = %+v (has=%v), want page 4", victim, has)
	}
	if !resident(c, 0) || resident(c, 4) || !resident(c, 8) {
		t.Fatal("contents wrong after LRU eviction")
	}
}

// TestDirtyVictim: a page written on its fill or on a hit leaves dirty,
// and each fill into a full set displaces one page.
func TestDirtyVictim(t *testing.T) {
	c := small(t)
	evictions := 0
	access := func(ppn uint64, write bool) cache.Victim {
		_, v, has := c.Access(page(ppn), write)
		if has {
			evictions++
		}
		return v
	}
	access(0, true) // dirty on allocate
	access(4, false)
	access(4, true) // dirty on hit
	if v := access(8, false); !v.Dirty || v.Addr != page(0) {
		t.Fatalf("victim1 = %+v, want dirty page 0", v)
	}
	if v := access(12, false); !v.Dirty || v.Addr != page(4) {
		t.Fatalf("victim2 = %+v, want dirty page 4", v)
	}
	if evictions != 2 {
		t.Fatalf("evictions = %d, want 2", evictions)
	}
}

// TestPageCachePanics: the SRAM factory refuses, with an error, a cache
// whose pages the frames cannot hold: pages not a multiple of the ways,
// or no page at all.
func TestPageCachePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int64
	}{
		{"bad geometry", 7 * config.PageSize},
		{"zero pages", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.CacheSize, cfg.SRAMTag.Ways = tc.size, 2
			if _, err := org.New(config.SRAMTag, org.Ports{Cfg: cfg}); err == nil || !strings.Contains(err.Error(), "divisible") {
				t.Fatalf("SRAM at %d bytes in 2 ways: error %v, want one naming the ways", tc.size, err)
			}
		})
	}
}

// Property: a page is resident right after its access, in a frame below
// the capacity, and occupancy stays within the capacity.
func TestPageCacheInvariantProperty(t *testing.T) {
	f := func(ppns []uint8) bool {
		c := small(t)
		for _, p := range ppns {
			c.Access(page(uint64(p)), false)
			if c.Line() >= 8 {
				return false
			}
			if line, ok := c.Lookup(page(uint64(p))); !ok || line != c.Line() {
				return false
			}
		}
		return occupancy(c) <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct resident pages occupy distinct frames.
func TestPageCacheSlotBijectionProperty(t *testing.T) {
	f := func(ppns []uint8) bool {
		c := small(t)
		for _, p := range ppns {
			c.Access(page(uint64(p)), false)
		}
		seen := map[uint64]bool{}
		ok := true
		c.Each(func(line, addr uint64) {
			at, _ := c.Lookup(addr)
			ok = ok && at == line && !seen[line]
			seen[line] = true
		})
		return ok && len(seen) == occupancy(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPageCachePeekAndMarkDirty: a Lookup finds a resident page's frame,
// MarkDirty refuses an absent page, neither refreshes the LRU order, and
// the dirtiness MarkDirty sets reaches the victim.
func TestPageCachePeekAndMarkDirty(t *testing.T) {
	c := small(t)
	if _, ok := c.Lookup(page(5)); ok {
		t.Fatal("peek found absent page")
	}
	c.Access(page(5), false)
	want := c.Line()
	if got, ok := c.Lookup(page(5)); !ok || got != want {
		t.Fatalf("peek = %d,%v, want %d", got, ok, want)
	}
	if c.MarkDirty(page(99)) {
		t.Fatal("marked absent page dirty")
	}
	c.Access(page(1), false) // set 1, as page 5, which is now LRU
	if !c.MarkDirty(page(5)) {
		t.Fatal("mark dirty missed resident page")
	}
	c.Lookup(page(5))
	_, victim, has := c.Access(page(9), false) // set 1 is full
	if !has || victim.Addr != page(5) || !victim.Dirty {
		t.Fatalf("victim = %+v (has=%v), want page 5 still LRU and dirty", victim, has)
	}
}
