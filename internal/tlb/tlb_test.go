package tlb

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"taglessdram/internal/config"
	"taglessdram/internal/flat"
)

func small() *TLB {
	return New(config.TLBConfig{Entries: 8, Ways: 2}) // 4 sets x 2 ways
}

// occupancy counts the valid entries.
func occupancy(tl *TLB) int {
	n := 0
	tl.Each(func(uint64, Entry) { n++ })
	return n
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
	if n := occupancy(tl); n != 2 {
		t.Fatalf("occupancy = %d, want 2", n)
	}
	// Occupancy saturates at capacity.
	for v := uint64(0); v < 20; v++ {
		tl.Insert(v, Entry{Frame: v})
	}
	if n := occupancy(tl); n != 8 {
		t.Fatalf("occupancy = %d, want 8 (capacity)", n)
	}
}

func TestPeekDoesNotPerturb(t *testing.T) {
	tl := small()
	tl.Insert(0, Entry{Frame: 1})
	if e, ok := tl.Peek(0); !ok || e.Frame != 1 {
		t.Fatalf("peek = %+v,%v", e, ok)
	}
	if _, ok := tl.Peek(99); ok || occupancy(tl) != 1 {
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

// TestInvalidateAndUpdate: Insert rewrites a present entry in place,
// Invalidate drops it once, and a later Insert installs it afresh.
func TestInvalidateAndUpdate(t *testing.T) {
	tl := small()
	tl.Insert(3, Entry{Frame: 7})
	tl.Insert(3, Entry{Frame: 9})
	if e, _ := tl.Peek(3); e.Frame != 9 {
		t.Fatalf("frame = %d, want 9", e.Frame)
	}
	if !tl.Invalidate(3) {
		t.Fatal("invalidate missed present entry")
	}
	if _, ok := tl.Lookup(3); ok {
		t.Fatal("lookup hit an invalidated entry")
	}
	if tl.Invalidate(3) {
		t.Fatal("double invalidate reported present")
	}
	if _, _, evicted := tl.Insert(3, Entry{Frame: 11, NC: true}); evicted {
		t.Fatal("reinsert into the freed line evicted")
	}
	if e, ok := tl.Peek(3); !ok || e.Frame != 11 || !e.NC || occupancy(tl) != 1 {
		t.Fatalf("after reinsert: %+v,%v with %d entries", e, ok, occupancy(tl))
	}
}

// TestFreshImageSize bounds an empty TLB's checkpoint image: an empty
// line costs one byte each for its key and its recency word and carries
// no entry, plus a small header (line count, LRU clock, memo).
func TestFreshImageSize(t *testing.T) {
	cfg := config.Default().L2TLB
	tl := New(cfg)
	img, err := flat.Encode(nil, tl.Visit)
	if err != nil {
		t.Fatal(err)
	}
	if max := 2*cfg.Entries + 16; len(img) > max {
		t.Fatalf("an empty %d-slot TLB renders %d bytes, want at most %d", cfg.Entries, len(img), max)
	}
	twin := New(cfg)
	if err := flat.Decode(img, twin.Visit); err != nil {
		t.Fatal(err)
	}
	if n := occupancy(twin); n != 0 {
		t.Fatalf("the decoded empty image holds %d entries", n)
	}
}

// TestVisitRefusesForgedImages: a decoded TLB must hold each key once,
// in its own set, stamped no later than the clock. A real image of an
// 8-entry, 2-way TLB holding keys 40 and 44 (set 0) is forged by a byte
// edit to break each rule in turn: 44 becomes 40 (held twice) or 41 (of
// set 1), or the clock becomes 1. Each must fail to decode, and the real
// image must load. The keys cross one up, and their bytes and the
// clock's are unique in the image.
func TestVisitRefusesForgedImages(t *testing.T) {
	cfg := config.TLBConfig{Entries: 8, Ways: 2}
	real := New(cfg)
	for i := 0; i < 300; i++ {
		real.Insert(40, Entry{Frame: 9})
	}
	real.Insert(44, Entry{Frame: 10})
	real.Insert(49, Entry{Frame: 11})
	real.Invalidate(49) // the clock, 302, is no line's stamp
	img, err := flat.Encode(nil, real.Visit)
	if err != nil {
		t.Fatal(err)
	}
	twin := New(cfg)
	if err := flat.Decode(img, twin.Visit); err != nil {
		t.Fatalf("the real image: %v", err)
	}
	if e, ok := twin.Peek(44); !ok || e.Frame != 10 || occupancy(twin) != 2 {
		t.Fatalf("the real image decoded to key 44 %+v,%v with %d entries", e, ok, occupancy(twin))
	}
	edit := func(from, to []byte) []byte {
		if n := bytes.Count(img, from); n != 1 {
			t.Fatalf("bytes %x occur %d times in the image, want once", from, n)
		}
		return bytes.Replace(img, from, to, 1)
	}
	for name, forged := range map[string][]byte{
		"key held twice":        edit([]byte{44 + 1}, []byte{40 + 1}),
		"key of another set":    edit([]byte{44 + 1}, []byte{41 + 1}),
		"stamp after the clock": edit(binary.AppendUvarint(nil, 302), []byte{1}),
	} {
		t.Run(name, func(t *testing.T) {
			if err := flat.Decode(forged, New(cfg).Visit); err == nil {
				t.Fatal("the forged image decoded")
			}
		})
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
	l1 := New(c.L1TLB).keys.Config()
	if l1.Sets() != 8 || l1.Ways != 4 {
		t.Fatalf("L1 TLB geometry: %d sets x %d ways", l1.Sets(), l1.Ways)
	}
}

// --- Hierarchy tests ---

func hier() *Hierarchy {
	return NewHierarchy(
		config.TLBConfig{Entries: 4, Ways: 2},
		config.TLBConfig{Entries: 16, Ways: 4},
	)
}

// contains reports whether vpn is resident in either level, without
// perturbing state.
func contains(h *Hierarchy, vpn uint64) bool {
	_, inL1 := h.L1.Peek(vpn)
	_, inL2 := h.L2.Peek(vpn)
	return inL1 || inL2
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
	// Drop 9 from L1 alone; it must remain in L2.
	h.L1.Invalidate(9)
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
	if contains(h, 0) {
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
	if contains(h, 7) {
		t.Fatal("still resident after shootdown")
	}
	if h.Invalidate(7) {
		t.Fatal("double shootdown reported present")
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
// evicted is no longer resident.
func TestHierarchyEvictConsistencyProperty(t *testing.T) {
	f := func(vpns []uint8) bool {
		h := hier()
		ok := true
		h.OnEvict = func(vpn uint64, e Entry) {
			if contains(h, vpn) {
				ok = false
			}
		}
		for _, v := range vpns {
			h.Insert(uint64(v), Entry{Frame: uint64(v)})
			if !contains(h, uint64(v)) {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
