package dramcache_test

import (
	"strings"
	"testing"
	"testing/quick"

	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/org"
)

// tinyBlock builds Alloy's TAD array with 8 lines.
func tinyBlock(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := org.NewTADArray(8 * org.TADBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBlockCacheMissThenHit(t *testing.T) {
	c := tinyBlock(t)
	if _, hit := c.Lookup(0x1000); hit {
		t.Fatal("cold lookup hit")
	}
	c.Access(0x1000, false)
	line, hit := c.Lookup(0x1000)
	if !hit {
		t.Fatal("filled block missed")
	}
	if line != (0x1000>>6)%8 {
		t.Fatalf("line = %d", line)
	}
	if n := occupancy(c); n != 1 {
		t.Fatalf("occupancy = %d, want 1", n)
	}
}

func TestBlockCacheDirectMappedConflict(t *testing.T) {
	c := tinyBlock(t)
	// Two blocks 8*64 bytes apart collide in a direct-mapped 8-line cache.
	a, b := uint64(0), uint64(8*64)
	c.Access(a, true)
	_, victim, has := c.Access(b, false)
	if !has || victim.Addr != a || !victim.Dirty {
		t.Fatalf("victim = %+v (has=%v)", victim, has)
	}
	if _, ok := c.Lookup(a); ok {
		t.Fatal("direct-mapped replacement kept the victim")
	}
	if _, ok := c.Lookup(b); !ok {
		t.Fatal("direct-mapped replacement lost the fill")
	}
	// The clean block displaced next is not a write-back.
	if _, victim, _ := c.Access(a, false); victim.Dirty {
		t.Fatalf("clean victim %+v reported dirty", victim)
	}
}

// TestBlockCacheCapacitySplit: a cache of TADs holds CacheSize/TADBytes
// lines of 64 data bytes and 8 tag bytes each, within the cache: at 1 GB
// about 910 MB of data and 114 MB of tags, the 12.5%-of-data overhead
// the paper's introduction computes. The split is the same at any size;
// 64 MB keeps the array small.
func TestBlockCacheCapacitySplit(t *testing.T) {
	const size = 64 << 20
	c, err := org.NewTADArray(size)
	if err != nil {
		t.Fatal(err)
	}
	lines := int64(c.Config().Sets()) * int64(c.Config().Ways)
	if lines != size/org.TADBytes {
		t.Fatalf("%d lines, want %d", lines, size/org.TADBytes)
	}
	data, tags := c.Config().SizeBytes, lines*(org.TADBytes-config.BlockSize)
	if data+tags > size {
		t.Fatal("TADs exceed device capacity")
	}
	ratio := float64(tags) / float64(data)
	if ratio < 0.12 || ratio > 0.13 {
		t.Fatalf("tag/data ratio = %v, want 8/64", ratio)
	}
}

// TestBlockCacheTADAddrInRange: the TAD of any address's line lies
// within the cache.
func TestBlockCacheTADAddrInRange(t *testing.T) {
	const size = 1 << 20
	c, err := org.NewTADArray(size)
	if err != nil {
		t.Fatal(err)
	}
	inRange := func(addr uint64) bool {
		c.Access(addr, false)
		return c.Line()*org.TADBytes+org.TADBytes <= size
	}
	for _, addr := range []uint64{0, 64, 4096, 1 << 30} {
		if !inRange(addr) {
			t.Fatalf("TAD of address %d at %d, out of device", addr, c.Line()*org.TADBytes)
		}
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockCacheMarkDirty(t *testing.T) {
	c := tinyBlock(t)
	if c.MarkDirty(0x40) {
		t.Fatal("marked absent block dirty")
	}
	c.Access(0x40, false)
	want := c.Line()
	if !c.MarkDirty(0x40) {
		t.Fatal("mark dirty missed resident block")
	}
	if line, _ := c.Lookup(0x40); line != want {
		t.Fatalf("marked block in line %d, filled into %d", line, want)
	}
	_, v, _ := c.Access(0x40+8*64, false)
	if !v.Dirty {
		t.Fatal("dirtiness lost")
	}
}

// TestBlockCacheStatsAndReset: lookups, hit or miss, fill nothing.
func TestBlockCacheStatsAndReset(t *testing.T) {
	c := tinyBlock(t)
	c.Access(0, false)
	c.Lookup(0)
	c.Lookup(64)
	if n := occupancy(c); n != 1 {
		t.Fatalf("occupancy = %d", n)
	}
}

// TestBlockCachePanicsOnTiny: the Alloy factory refuses, with an error, a
// cache too small for one TAD.
func TestBlockCachePanicsOnTiny(t *testing.T) {
	cfg := config.Default()
	cfg.CacheSize = 10
	if _, err := org.New(config.AlloyBlock, org.Ports{Cfg: cfg}); err == nil || !strings.Contains(err.Error(), "no 72-byte TAD") {
		t.Fatalf("Alloy at 10 bytes: error %v, want one naming the TAD", err)
	}
}

// Property: after any access the block is resident and occupancy never
// exceeds the line count.
func TestBlockCacheInvariantProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := tinyBlock(t)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			addr := uint64(a)
			c.Access(addr, w)
			if _, ok := c.Lookup(addr); !ok {
				return false
			}
		}
		return occupancy(c) <= c.Config().Sets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
