package dramcache

import (
	"math"
	"testing"
	"testing/quick"
)

// small builds a cache of 4 sets x 2 ways counting into the returned
// TagStats.
func small() (*PageCache, *TagStats) {
	st := new(TagStats)
	return NewPageCache(8, 2, 11, st), st
}

func TestLookupMissThenFillThenHit(t *testing.T) {
	c, st := small()
	if _, hit := c.Lookup(5, false); hit {
		t.Fatal("cold lookup hit")
	}
	slot, _, hasVictim := c.Fill(5, false)
	if hasVictim {
		t.Fatal("fill into empty cache evicted")
	}
	got, hit := c.Lookup(5, false)
	if !hit || got != slot {
		t.Fatalf("lookup = slot %d hit %v, want %d", got, hit, slot)
	}
	if st.Hits != 1 || st.Lookups != 2 || st.MissFills != 1 {
		t.Fatalf("counters: %d/%d/%d", st.Hits, st.Lookups, st.MissFills)
	}
}

func TestSlotWithinDevice(t *testing.T) {
	c, _ := small()
	// PPNs 1, 5, 9 map to set 1; slots must be 2 or 3 (set*ways+way).
	s1, _, _ := c.Fill(1, false)
	s2, _, _ := c.Fill(5, false)
	if s1 == s2 || s1/2 != 1 || s2/2 != 1 {
		t.Fatalf("slots = %d,%d, want distinct in set 1", s1, s2)
	}
}

func TestLRUVictim(t *testing.T) {
	c, _ := small()
	c.Fill(0, false) // set 0
	c.Fill(4, false) // set 0
	c.Lookup(0, false)
	_, victim, has := c.Fill(8, false)
	if !has || victim.PPN != 4 {
		t.Fatalf("victim = %+v (has=%v), want PPN 4", victim, has)
	}
	if !c.Contains(0) || c.Contains(4) || !c.Contains(8) {
		t.Fatal("contents wrong after LRU eviction")
	}
}

func TestDirtyVictim(t *testing.T) {
	c, st := small()
	c.Fill(0, true) // dirty on allocate
	c.Fill(4, false)
	c.Lookup(4, true) // dirty on hit
	_, v1, _ := c.Fill(8, false)
	if !v1.Dirty || v1.PPN != 0 {
		t.Fatalf("victim1 = %+v", v1)
	}
	_, v2, _ := c.Fill(12, false)
	if !v2.Dirty || v2.PPN != 4 {
		t.Fatalf("victim2 = %+v", v2)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

// TestHitRateOccupancyReset: the counts give the hit rate and energy,
// and zeroing them (the measurement boundary) keeps the contents.
func TestHitRateOccupancyReset(t *testing.T) {
	c, st := small()
	c.Fill(0, false)
	c.Lookup(0, false)
	c.Lookup(1, false)
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	if got, want := st.EnergyPJ(), 2*18.0+1*6.0; got != want {
		t.Fatalf("tag energy = %v pJ, want %v", got, want)
	}
	*st = TagStats{}
	if st.HitRate() != 0 || st.EnergyPJ() != 0 {
		t.Fatal("zeroed counts still price a hit rate or energy")
	}
	if !c.Contains(0) {
		t.Fatal("reset dropped contents")
	}
	c.Lookup(0, false)
	if st.Lookups != 1 || st.Hits != 1 {
		t.Fatalf("counting after the reset: %+v", *st)
	}
}

func TestTagLatencyAndPages(t *testing.T) {
	c, _ := small()
	if c.TagLatency() != 11 || c.Pages() != 8 {
		t.Fatalf("latency/pages = %d/%d", c.TagLatency(), c.Pages())
	}
}

func TestPageCachePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad geometry": func() { NewPageCache(7, 2, 1, nil) },
		"zero pages":   func() { NewPageCache(0, 2, 1, nil) },
		"neg latency":  func() { NewPageCache(8, 2, -1, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// Property: occupancy bounded by capacity; a filled PPN is always found by
// the next lookup; slots stay within [0, pages).
func TestPageCacheInvariantProperty(t *testing.T) {
	f := func(ppns []uint8) bool {
		c, _ := small()
		for _, p := range ppns {
			ppn := uint64(p)
			slot, hit := c.Lookup(ppn, false)
			if !hit {
				slot, _, _ = c.Fill(ppn, false)
			}
			if slot >= 8 {
				return false
			}
			if _, hit2 := c.Lookup(ppn, false); !hit2 {
				return false
			}
		}
		return c.Occupancy() <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct resident PPNs occupy distinct slots.
func TestPageCacheSlotBijectionProperty(t *testing.T) {
	f := func(ppns []uint8) bool {
		c, _ := small()
		for _, p := range ppns {
			if !c.Contains(uint64(p)) {
				c.Fill(uint64(p), false)
			}
		}
		seen := map[uint64]bool{}
		for _, p := range ppns {
			if slot, hit := c.Lookup(uint64(p), false); hit {
				if seen[slot] {
					// Same slot twice is fine only for the same PPN;
					// second lookup of same ppn hits same slot.
					continue
				}
				seen[slot] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankInterleaverFraction(t *testing.T) {
	// 1GB in-package, 8GB off-package: stride 9, 1/9 of pages in-package.
	b := NewBankInterleaver(262144, 2097152)
	if b.Stride() != 9 {
		t.Fatalf("stride = %d, want 9", b.Stride())
	}
	inCount := 0
	const N = 90000
	for p := uint64(0); p < N; p++ {
		_, in := b.Map(p)
		if in {
			inCount++
		}
	}
	frac := float64(inCount) / N
	if math.Abs(frac-1.0/9.0) > 0.001 {
		t.Fatalf("in-package fraction = %v, want 1/9", frac)
	}
}

func TestBankInterleaverDevPagesInRange(t *testing.T) {
	b := NewBankInterleaver(16, 128)
	for p := uint64(0); p < 4096; p++ {
		dev, in := b.Map(p)
		if in && dev >= 16 {
			t.Fatalf("in-package dev page %d out of range", dev)
		}
		if !in && dev >= 128 {
			t.Fatalf("off-package dev page %d out of range", dev)
		}
	}
}

func TestBankInterleaverDeterministic(t *testing.T) {
	b := NewBankInterleaver(16, 128)
	d1, i1 := b.Map(77)
	d2, i2 := b.Map(77)
	if d1 != d2 || i1 != i2 {
		t.Fatal("mapping not deterministic")
	}
}

func TestBankInterleaverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBankInterleaver(0, 128)
}

func TestPageCachePeekAndMarkDirty(t *testing.T) {
	c, st := small()
	if _, ok := c.Peek(5); ok {
		t.Fatal("peek found absent page")
	}
	slot, _, _ := c.Fill(5, false)
	got, ok := c.Peek(5)
	if !ok || got != slot {
		t.Fatalf("peek = %d,%v, want %d", got, ok, slot)
	}
	// Peek must not perturb counters.
	before := st.Lookups
	c.Peek(5)
	if st.Lookups != before {
		t.Fatal("peek counted as a lookup")
	}
	if c.MarkDirty(99) {
		t.Fatal("marked absent page dirty")
	}
	if !c.MarkDirty(5) {
		t.Fatal("mark dirty missed resident page")
	}
	_, victim, _ := c.Fill(1, false) // different set; no eviction of 5
	_ = victim
	c.Fill(9, false)
	_, v2, has := c.Fill(13, false) // set 1 now evicts LRU (5)
	if has && v2.PPN == 5 && !v2.Dirty {
		t.Fatal("dirtiness set by MarkDirty was lost")
	}
}
