package tlb

import (
	"testing"
	"testing/quick"

	"taglessdram/internal/config"
	"taglessdram/internal/flat"
)

func small() *TLB {
	return New(config.TLBConfig{Entries: 8, Ways: 2}) // 4 sets x 2 ways
}

func TestLookupMissThenHit(t *testing.T) {
	tl := small()
	if _, ok := tl.Lookup(5); ok {
		t.Fatal("cold lookup hit")
	}
	tl.Insert(5, Entry{Frame: 42})
	e, ok := tl.Lookup(5)
	if !ok || e.Frame != 42 {
		t.Fatalf("lookup = %+v,%v", e, ok)
	}
	if _, ok := tl.Lookup(6); ok {
		t.Fatal("lookup of an absent vpn hit")
	}
}

func TestInsertOverwriteNoEvict(t *testing.T) {
	tl := small()
	tl.Insert(5, Entry{Frame: 1})
	_, _, evicted := tl.Insert(5, Entry{Frame: 2, NC: true})
	if evicted {
		t.Fatal("overwrite should not evict")
	}
	e, _ := tl.Peek(5)
	if e.Frame != 2 || !e.NC {
		t.Fatalf("entry = %+v, want frame 2 NC", e)
	}
}

func TestLRUEviction(t *testing.T) {
	tl := small()
	// VPNs 0, 4, 8 share set 0 (vpn % 4).
	tl.Insert(0, Entry{Frame: 10})
	tl.Insert(4, Entry{Frame: 14})
	tl.Lookup(0) // 0 becomes MRU
	evpn, ee, ok := tl.Insert(8, Entry{Frame: 18})
	if !ok || evpn != 4 || ee.Frame != 14 {
		t.Fatalf("evicted %d %+v (%v), want vpn 4", evpn, ee, ok)
	}
	if _, ok := tl.Peek(0); !ok {
		t.Fatal("MRU entry evicted")
	}
	if tl.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", tl.Occupancy())
	}
}

func TestPeekDoesNotPerturb(t *testing.T) {
	tl := small()
	tl.Insert(0, Entry{Frame: 1})
	if e, ok := tl.Peek(0); !ok || e.Frame != 1 {
		t.Fatalf("peek = %+v,%v", e, ok)
	}
	if _, ok := tl.Peek(99); ok || tl.Occupancy() != 1 {
		t.Fatal("peek of an absent vpn found or installed it")
	}
	// Peek must not refresh LRU: 0 inserted, then 4, so 0 stays the
	// victim of the next insert into set 0 however often it is peeked.
	tl2 := small()
	tl2.Insert(0, Entry{})
	tl2.Insert(4, Entry{})
	tl2.Peek(0) // must NOT make 0 MRU
	evpn, _, ok := tl2.Insert(8, Entry{})
	if !ok || evpn != 0 {
		t.Fatalf("evicted %d (%v), want 0 — peek refreshed LRU", evpn, ok)
	}
}

func TestInvalidateAndUpdate(t *testing.T) {
	tl := small()
	tl.Insert(3, Entry{Frame: 7})
	if !tl.Update(3, Entry{Frame: 9}) {
		t.Fatal("update missed present entry")
	}
	e, _ := tl.Peek(3)
	if e.Frame != 9 {
		t.Fatalf("frame = %d, want 9", e.Frame)
	}
	if !tl.Invalidate(3) {
		t.Fatal("invalidate missed present entry")
	}
	if tl.Invalidate(3) {
		t.Fatal("double invalidate reported present")
	}
	if tl.Update(3, Entry{}) {
		t.Fatal("update on absent entry reported present")
	}
}

func TestOccupancyAndFlush(t *testing.T) {
	tl := small()
	for v := uint64(0); v < 20; v++ {
		tl.Insert(v, Entry{Frame: v})
	}
	if tl.Occupancy() != 8 {
		t.Fatalf("occupancy = %d, want 8 (capacity)", tl.Occupancy())
	}
	tl.Flush()
	if tl.Occupancy() != 0 {
		t.Fatal("flush left entries")
	}
}

// TestFreshImageSize bounds an empty TLB's checkpoint image: an empty
// slot costs one byte each for its vpn, frame, NC bit and stamp, plus a
// small header (slot count, LRU clock, memo).
func TestFreshImageSize(t *testing.T) {
	cfg := config.Default().L2TLB
	tl := New(cfg)
	img, err := flat.Encode(nil, tl.Visit)
	if err != nil {
		t.Fatal(err)
	}
	if max := 4*cfg.Entries + 16; len(img) > max {
		t.Fatalf("an empty %d-slot TLB renders %d bytes, want at most %d", cfg.Entries, len(img), max)
	}
	twin := New(cfg)
	if err := flat.Decode(img, twin.Visit); err != nil {
		t.Fatal(err)
	}
	if twin.Occupancy() != 0 {
		t.Fatalf("the decoded empty image holds %d entries", twin.Occupancy())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(config.TLBConfig{Entries: 8, Ways: 0})
}

func TestDefaultGeometry(t *testing.T) {
	c := config.Default()
	l1 := New(c.L1TLB)
	if l1.nsets != 8 || l1.Config().Ways != 4 {
		t.Fatalf("L1 TLB geometry: %d sets x %d ways", l1.nsets, l1.Config().Ways)
	}
}

// --- Hierarchy tests ---

func hier() *Hierarchy {
	return NewHierarchy(
		config.TLBConfig{Entries: 4, Ways: 2},
		config.TLBConfig{Entries: 16, Ways: 4},
	)
}

func TestHierarchyLookupLevels(t *testing.T) {
	h := hier()
	if _, lvl := h.Lookup(9); lvl != MissAll {
		t.Fatalf("cold lookup level = %v", lvl)
	}
	h.Insert(9, Entry{Frame: 90})
	if _, lvl := h.Lookup(9); lvl != InL1 {
		t.Fatalf("level = %v, want L1", lvl)
	}
	// Evict 9 from tiny L1 by filling its set; it must remain in L2.
	h.L1.Flush()
	e, lvl := h.Lookup(9)
	if lvl != InL2 || e.Frame != 90 {
		t.Fatalf("lookup = %+v at %v, want L2 hit", e, lvl)
	}
	// The L2 hit refilled L1.
	if _, lvl := h.Lookup(9); lvl != InL1 {
		t.Fatalf("after refill level = %v, want L1", lvl)
	}
}

func TestHierarchyInclusionOnL2Evict(t *testing.T) {
	h := hier()
	var evicted []uint64
	h.OnEvict = func(vpn uint64, e Entry) { evicted = append(evicted, vpn) }
	// L2 has 4 sets x 4 ways; VPNs congruent mod 4 share a set.
	for i := 0; i < 5; i++ {
		h.Insert(uint64(i*4), Entry{Frame: uint64(i)})
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v, want [0]", evicted)
	}
	// Inclusion: the evicted VPN must not linger in L1.
	if h.Contains(0) {
		t.Fatal("evicted VPN still resident")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := hier()
	fired := 0
	h.OnEvict = func(uint64, Entry) { fired++ }
	h.Insert(7, Entry{Frame: 70})
	if !h.Invalidate(7) {
		t.Fatal("invalidate missed")
	}
	if fired != 1 {
		t.Fatalf("OnEvict fired %d times, want 1", fired)
	}
	if h.Contains(7) {
		t.Fatal("still resident after shootdown")
	}
	if h.Invalidate(7) {
		t.Fatal("double shootdown reported present")
	}
}

func TestHierarchyUpdate(t *testing.T) {
	h := hier()
	h.Insert(5, Entry{Frame: 50})
	if !h.Update(5, Entry{Frame: 51, NC: true}) {
		t.Fatal("update missed")
	}
	e, lvl := h.Lookup(5)
	if lvl == MissAll || e.Frame != 51 || !e.NC {
		t.Fatalf("entry after update = %+v at %v", e, lvl)
	}
}

func TestHierarchyFlushSilent(t *testing.T) {
	h := hier()
	fired := 0
	h.OnEvict = func(uint64, Entry) { fired++ }
	h.Insert(1, Entry{})
	h.Flush()
	if fired != 0 {
		t.Fatal("flush fired OnEvict")
	}
	if h.Contains(1) {
		t.Fatal("flush left entries")
	}
}

// Property: inclusion — any VPN in L1 is also in L2, always.
func TestHierarchyInclusionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := hier()
		h.OnEvict = func(vpn uint64, e Entry) {}
		live := map[uint64]bool{}
		for _, op := range ops {
			vpn := uint64(op % 64)
			switch op % 3 {
			case 0:
				h.Insert(vpn, Entry{Frame: vpn})
				live[vpn] = true
			case 1:
				h.Lookup(vpn)
			case 2:
				h.Invalidate(vpn)
				delete(live, vpn)
			}
			// Check inclusion for every possible vpn in L1.
			for v := uint64(0); v < 64; v++ {
				if _, inL1 := h.L1.Peek(v); inL1 {
					if _, inL2 := h.L2.Peek(v); !inL2 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: OnEvict fires exactly once per departure — a VPN reported
// evicted is no longer Contains()ed.
func TestHierarchyEvictConsistencyProperty(t *testing.T) {
	f := func(vpns []uint8) bool {
		h := hier()
		ok := true
		h.OnEvict = func(vpn uint64, e Entry) {
			if h.Contains(vpn) {
				ok = false
			}
		}
		for _, v := range vpns {
			h.Insert(uint64(v), Entry{Frame: uint64(v)})
			if !h.Contains(uint64(v)) {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
