package mmu

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocContiguous(t *testing.T) {
	a := NewFrameAllocator(64)
	base, err := a.AllocContiguous(16)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := a.AllocContiguous(16)
	if err != nil {
		t.Fatal(err)
	}
	if base2 != base+16 {
		t.Fatalf("regions overlap or gap: %d then %d", base, base2)
	}
	if _, err := a.AllocContiguous(64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want out of memory", err)
	}
	if _, err := a.AllocContiguous(0); err == nil {
		t.Fatal("zero-length contiguous allocation accepted")
	}
}

func TestAllocContiguousIgnoresFreeList(t *testing.T) {
	a := NewFrameAllocator(8)
	p, _ := a.Alloc()
	a.Free(p)
	base, err := a.AllocContiguous(4)
	if err != nil {
		t.Fatal(err)
	}
	if base == p {
		t.Fatal("contiguous allocation reused a fragmented free frame")
	}
}

func TestWalkRegion(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(1024))
	// Any vpn within the region returns the same superpage PTE.
	a, err := pt.WalkRegion(0x105, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Super {
		t.Fatal("region PTE not marked super")
	}
	b, err := pt.WalkRegion(0x100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("region pages got distinct PTEs")
	}
	if pt.Pages() != 1 {
		t.Fatalf("pages = %d, want 1", pt.Pages())
	}
	// The PTE is stored at the region base.
	if _, ok := pt.Lookup(0x100); !ok {
		t.Fatal("region PTE not at base")
	}
	if _, ok := pt.Lookup(0x105); ok {
		t.Fatal("non-base page has its own entry")
	}
}

func TestWalkRegionConflictsWith4KB(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(1024))
	if _, err := pt.Walk(0x200); err != nil { // 4KB mapping at region base
		t.Fatal(err)
	}
	if _, err := pt.WalkRegion(0x203, 8); err == nil {
		t.Fatal("region overlapping a 4KB mapping accepted")
	}
}

func TestWalkRegionContiguousFrames(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(1024))
	a, _ := pt.WalkRegion(0, 8)
	b, _ := pt.WalkRegion(8, 8)
	if b.Frame != a.Frame+8 {
		t.Fatalf("region frames not packed: %d then %d", a.Frame, b.Frame)
	}
}

// Property: regions never share frames — distinct region bases get
// disjoint physical ranges.
func TestWalkRegionDisjointProperty(t *testing.T) {
	f := func(vpns []uint8) bool {
		pt := NewPageTable(0, NewFrameAllocator(1<<16))
		owned := map[uint64]uint64{} // frame → region base
		for _, v := range vpns {
			vpn := uint64(v)
			pte, err := pt.WalkRegion(vpn, 4)
			if err != nil {
				return false
			}
			base := vpn &^ 3
			for f := pte.Frame; f < pte.Frame+4; f++ {
				if ob, ok := owned[f]; ok && ob != base {
					return false
				}
				owned[f] = base
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapSharedRejectsDouble(t *testing.T) {
	pt := NewPageTable(0, NewFrameAllocator(4))
	if _, err := pt.MapShared(5, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.MapShared(5, 3); err == nil {
		t.Fatal("double mapping accepted")
	}
	pte, ok := pt.Lookup(5)
	if !ok || pte.Frame != 2 {
		t.Fatalf("shared PTE = %+v, %v", pte, ok)
	}
}
