package dramcache

import (
	"testing"
	"testing/quick"
)

func tinyBlock() *BlockCache { return NewBlockCache(8 * TADBytes) } // 8 slots

func TestBlockCacheMissThenHit(t *testing.T) {
	c := tinyBlock()
	if _, hit := c.Lookup(0x1000, false); hit {
		t.Fatal("cold lookup hit")
	}
	c.Fill(0x1000, false)
	slot, hit := c.Lookup(0x1000, false)
	if !hit {
		t.Fatal("filled block missed")
	}
	if slot != (0x1000>>6)%8 {
		t.Fatalf("slot = %d", slot)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestBlockCacheDirectMappedConflict(t *testing.T) {
	c := tinyBlock()
	// Two blocks 8*64 bytes apart collide in a direct-mapped 8-slot cache.
	a, b := uint64(0), uint64(8*64)
	c.Fill(a, true)
	_, victim, has := c.Fill(b, false)
	if !has || victim.BlockAddr != a || !victim.Dirty {
		t.Fatalf("victim = %+v (has=%v)", victim, has)
	}
	if c.Contains(a) || !c.Contains(b) {
		t.Fatal("direct-mapped replacement wrong")
	}
	// The clean block displaced next is not a write-back.
	if _, victim, _ := c.Fill(a, false); victim.Dirty {
		t.Fatalf("clean victim %+v reported dirty", victim)
	}
}

func TestBlockCacheCapacitySplit(t *testing.T) {
	// 1GB of TADs: data capacity ~910MB, tags ~114MB — the 12.5%-of-data
	// overhead the paper's introduction computes.
	c := NewBlockCache(1 << 30)
	if c.DataBytes()+c.TagBytes() > 1<<30 {
		t.Fatal("TADs exceed device capacity")
	}
	ratio := float64(c.TagBytes()) / float64(c.DataBytes())
	if ratio < 0.12 || ratio > 0.13 {
		t.Fatalf("tag/data ratio = %v, want 8/64", ratio)
	}
}

func TestBlockCacheTADAddrInRange(t *testing.T) {
	c := NewBlockCache(1 << 20)
	for _, addr := range []uint64{0, 64, 4096, 1 << 30} {
		slot, _ := c.Lookup(addr, false)
		if tad := c.TADAddr(slot); tad+TADBytes > 1<<20 {
			t.Fatalf("TAD address %d out of device", tad)
		}
	}
}

func TestBlockCacheMarkDirty(t *testing.T) {
	c := tinyBlock()
	if _, ok := c.MarkDirty(0x40); ok {
		t.Fatal("marked absent block dirty")
	}
	wantSlot, _, _ := c.Fill(0x40, false)
	slot, ok := c.MarkDirty(0x40)
	if !ok {
		t.Fatal("mark dirty missed resident block")
	}
	if slot != wantSlot {
		t.Fatalf("MarkDirty slot = %d, Fill slot = %d", slot, wantSlot)
	}
	_, v, _ := c.Fill(0x40+8*64, false)
	if !v.Dirty {
		t.Fatal("dirtiness lost")
	}
}

func TestBlockCacheStatsAndReset(t *testing.T) {
	c := tinyBlock()
	c.Fill(0, false)
	c.Lookup(0, false)
	c.Lookup(64, false)
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
}

func TestBlockCachePanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlockCache(10)
}

// Property: after any fill, the block is resident and occupancy never
// exceeds the slot count; a write hit is always recoverable as dirty.
func TestBlockCacheInvariantProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := tinyBlock()
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			addr := uint64(a)
			if _, hit := c.Lookup(addr, w); !hit {
				c.Fill(addr, w)
			}
			if !c.Contains(addr) {
				return false
			}
		}
		return c.Occupancy() <= c.Sets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
