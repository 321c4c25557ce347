package mmu

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestWalkDemandAllocates(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(4))
	pte, err := pt.Walk(100)
	if err != nil {
		t.Fatal(err)
	}
	if pte.Frame != 0 || pte.VC || pte.NC || pte.PU {
		t.Fatalf("first PTE = %+v", pte)
	}
	pte2, err := pt.Walk(200)
	if err != nil {
		t.Fatal(err)
	}
	if pte2.Frame != 1 {
		t.Fatalf("second frame = %d, want 1", pte2.Frame)
	}
	if pt.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", pt.Pages())
	}
}

func TestWalkIsStable(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(4))
	a, _ := pt.Walk(7)
	b, _ := pt.Walk(7)
	if a != b {
		t.Fatal("repeated walks returned different PTE pointers")
	}
	if pt.Pages() != 1 {
		t.Fatalf("pages = %d, want 1", pt.Pages())
	}
}

func TestWalkMutationVisible(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(4))
	pte, _ := pt.Walk(7)
	pte.VC = true
	pte.Frame = 99
	again, _ := pt.Walk(7)
	if !again.VC || again.Frame != 99 {
		t.Fatal("PTE mutation lost")
	}
}

func TestOutOfMemory(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(2))
	pt.Walk(1)
	pt.Walk(2)
	_, err := pt.Walk(3)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFreeListReuse(t *testing.T) {
	a := NewFrameAllocator(2)
	p0, _ := a.Alloc()
	p1, _ := a.Alloc()
	if a.InUse() != 2 {
		t.Fatalf("in use = %d", a.InUse())
	}
	a.Free(p0)
	if a.InUse() != 1 {
		t.Fatalf("in use after free = %d", a.InUse())
	}
	p2, err := a.Alloc()
	if err != nil || p2 != p0 {
		t.Fatalf("realloc = %d,%v, want %d", p2, err, p0)
	}
	_ = p1
	if a.Capacity() != 2 {
		t.Fatalf("capacity = %d", a.Capacity())
	}
}

func TestLookupWithoutAllocating(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(4))
	if _, ok := pt.Lookup(5); ok {
		t.Fatal("lookup allocated")
	}
	pt.Walk(5)
	if _, ok := pt.Lookup(5); !ok {
		t.Fatal("lookup missed mapped page")
	}
	if pt.Pages() != 1 {
		t.Fatalf("pages = %d", pt.Pages())
	}
}

func TestSetNonCacheable(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(4))
	if err := pt.SetNonCacheable(9); err != nil {
		t.Fatal(err)
	}
	pte, _ := pt.Lookup(9)
	if !pte.NC {
		t.Fatal("NC bit not set")
	}
	// A cached page may not be marked non-cacheable in place.
	pte2, _ := pt.Walk(10)
	pte2.VC = true
	if err := pt.SetNonCacheable(10); err == nil {
		t.Fatal("expected error for cached page")
	}
}

func TestCachedPagesCount(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(8))
	for v := uint64(0); v < 5; v++ {
		pte, _ := pt.Walk(v)
		pte.VC = v%2 == 0
	}
	if got := pt.CachedPages(); got != 3 {
		t.Fatalf("cached pages = %d, want 3", got)
	}
}

func TestPTEString(t *testing.T) {
	s := PTE{Frame: 3, VC: true}.String()
	if !strings.Contains(s, "CA-3") || !strings.Contains(s, "(1,0)") {
		t.Fatalf("string = %q", s)
	}
	s = PTE{Frame: 5, NC: true}.String()
	if !strings.Contains(s, "PA-5") || !strings.Contains(s, "(0,1)") {
		t.Fatalf("string = %q", s)
	}
}

func TestNilAllocatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPageTable(0, nil)
}

func TestSharedAllocatorAcrossTables(t *testing.T) {
	alloc := NewFrameAllocator(4)
	pt0 := NewPageTable(0, alloc)
	pt1 := NewPageTable(1, alloc)
	a, _ := pt0.Walk(0)
	b, _ := pt1.Walk(0) // same VPN, different address space
	if a.Frame == b.Frame {
		t.Fatal("two address spaces shared a frame")
	}
}

// Property: distinct VPNs always receive distinct frames, and InUse tracks
// exactly the number of live allocations.
func TestAllocatorBijectionProperty(t *testing.T) {
	f := func(vpns []uint8) bool {
		alloc := NewFrameAllocator(1024)
		pt := NewPageTable(0, alloc)
		seen := map[uint64]uint64{} // frame → vpn
		for _, v := range vpns {
			pte, err := pt.Walk(uint64(v))
			if err != nil {
				return false
			}
			if owner, dup := seen[pte.Frame]; dup && owner != uint64(v) {
				return false
			}
			seen[pte.Frame] = uint64(v)
		}
		return alloc.InUse() == uint64(pt.Pages())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: free then alloc conserves the frame pool (never exceeds capacity).
func TestAllocatorConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewFrameAllocator(16)
		var live []uint64
		for _, isAlloc := range ops {
			if isAlloc || len(live) == 0 {
				ppn, err := a.Alloc()
				if err != nil {
					if a.InUse() > 16 {
						return false
					}
					continue
				}
				if ppn >= 16 {
					return false
				}
				live = append(live, ppn)
			} else {
				a.Free(live[len(live)-1])
				live = live[:len(live)-1]
			}
			if a.InUse() != uint64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
