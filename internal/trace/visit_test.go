package trace

import (
	"bytes"
	"reflect"
	"testing"

	"taglessdram/internal/flat"
)

// visitProfiles exercises the generator corners the visit path must match:
// repeats, streaming, shared/singleton regions, single-block visits and a
// write-free stream.
func visitProfiles() []Profile {
	base := testProfile()
	shared := base
	shared.Name = "shared"
	shared.SharedFrac = 0.2
	streaming := base
	streaming.Name = "streaming"
	streaming.Streaming = true
	streaming.BlockRepeats = 0
	oneBlock := base
	oneBlock.Name = "oneblock"
	oneBlock.SpatialBlocks = 1
	readOnly := base
	readOnly.Name = "readonly"
	readOnly.WriteFraction = 0
	dense := base
	dense.Name = "dense"
	dense.SpatialBlocks = 64
	dense.BlockRepeats = 3
	return []Profile{base, shared, streaming, oneBlock, readOnly, dense}
}

// nextVisitRef collects one whole page visit from the per-reference stream.
func nextVisitRef(g *Generator) Visit {
	var v Visit
	firstSeen := map[int]bool{}
	for {
		a := g.Next()
		block := int(a.VAddr>>6) & 63
		if v.Refs == 0 {
			v.Page = a.VAddr >> 12
			v.FirstBlock = block
			v.LowReuse = a.LowReuse
			v.Shared = a.Shared
		}
		if block-v.FirstBlock+1 > v.Blocks {
			v.Blocks = block - v.FirstBlock + 1
		}
		if a.Write {
			v.AnyWrite |= 1 << uint(block-v.FirstBlock)
			if !firstSeen[block] {
				v.FirstWrite |= 1 << uint(block-v.FirstBlock)
			}
		}
		firstSeen[block] = true
		v.Refs++
		v.Instr += uint64(a.Gap) + 1
		if g.AtVisitBoundary() {
			return v
		}
	}
}

func TestNextVisitMatchesNextLoop(t *testing.T) {
	for _, p := range visitProfiles() {
		t.Run(p.Name, func(t *testing.T) {
			ref := NewGenerator(p, 42)
			fast := NewGenerator(p, 42)
			var v Visit
			for i := 0; i < 5000; i++ {
				want := nextVisitRef(ref)
				fast.NextVisit(&v)
				if !reflect.DeepEqual(want, v) {
					t.Fatalf("visit %d: per-ref %+v vs visit %+v", i, want, v)
				}
				if a, b := image(t, ref), image(t, fast); !bytes.Equal(a, b) {
					t.Fatalf("visit %d: the generators' images differ: %x vs %x", i, a, b)
				}
			}
			// The streams must stay interchangeable after the switch.
			for i := 0; i < 10000; i++ {
				a, b := ref.Next(), fast.Next()
				if a != b {
					t.Fatalf("streams diverge %d refs after visits: %+v vs %+v", i, a, b)
				}
			}
		})
	}
}

func TestNextVisitInterleavesWithNext(t *testing.T) {
	p := testProfile()
	p.SharedFrac = 0.1
	ref := NewGenerator(p, 7)
	mixed := NewGenerator(p, 7)
	var v Visit
	for i := 0; i < 3000; i++ {
		want := nextVisitRef(ref)
		if i%2 == 0 {
			mixed.NextVisit(&v)
			if !reflect.DeepEqual(want, v) {
				t.Fatalf("visit %d mismatch: %+v vs %+v", i, want, v)
			}
		} else {
			got := nextVisitRef(mixed)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("visit %d mismatch: %+v vs %+v", i, want, got)
			}
		}
	}
}

func TestNextVisitThreadGroup(t *testing.T) {
	p := testProfile()
	p.SharedFrac = 0.05
	mk := func() []*Generator {
		gs, err := NewThreadGroup(p, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		return gs
	}
	ref, fast := mk(), mk()
	var v Visit
	// Round-robin across threads keeps the shared-state mutation order
	// identical between the two groups.
	for i := 0; i < 4000; i++ {
		want := nextVisitRef(ref[i%4])
		fast[i%4].NextVisit(&v)
		if !reflect.DeepEqual(want, v) {
			t.Fatalf("visit %d thread %d: %+v vs %+v", i, i%4, want, v)
		}
	}
	for i := 0; i < 4000; i++ {
		a, b := ref[i%4].Next(), fast[i%4].Next()
		if a != b {
			t.Fatalf("thread %d diverges after visits: %+v vs %+v", i%4, a, b)
		}
	}
}

func TestNextVisitMidVisitPanics(t *testing.T) {
	g := NewGenerator(testProfile(), 1)
	g.Next() // mid-visit: SpatialBlocks > 1
	if g.AtVisitBoundary() {
		t.Fatal("generator unexpectedly at a boundary after one ref")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NextVisit mid-visit did not panic")
		}
	}()
	var v Visit
	g.NextVisit(&v)
}

// TestGenStateRoundTrip restores a generator's per-thread and group
// images into a freshly built twin, mid-stream: both must then emit the
// same references, and the twin must render the same image.
func TestGenStateRoundTrip(t *testing.T) {
	p := testProfile()
	p.SharedFrac = 0.1
	g := NewGenerator(p, 3)
	for i := 0; i < 12345; i++ {
		g.Next()
	}
	visit := func(g *Generator) func(*flat.Codec) {
		return func(c *flat.Codec) {
			g.Visit(c)
			g.VisitGroup(c)
		}
	}
	img, err := flat.Encode(nil, visit(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.LowReusePages()) == 0 {
		t.Fatal("the stream touched no singleton pages; the group image is not exercised")
	}

	twin := NewGenerator(p, 3)
	if err := flat.Decode(img, visit(twin)); err != nil {
		t.Fatal(err)
	}
	if again, _ := flat.Encode(nil, visit(twin)); !bytes.Equal(again, img) {
		t.Fatal("the restored generator renders a different image")
	}
	for i := 0; i < 20000; i++ {
		a, b := g.Next(), twin.Next()
		if a != b {
			t.Fatalf("restored stream diverges at %d: %+v vs %+v", i, a, b)
		}
	}
	if a, b := image(t, g), image(t, twin); !bytes.Equal(a, b) {
		t.Fatalf("the generators' images differ after the same references: %x vs %x", a, b)
	}
}

// image renders g's per-thread checkpoint image: its RNG position and
// the page visit in progress.
func image(t *testing.T, g *Generator) []byte {
	t.Helper()
	img, err := flat.Encode(nil, g.Visit)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestGenStateRefusesForgedVisit: a decoded page visit must be one Next
// and NextVisit can leave behind. Each forged field of a real mid-visit
// image fails to decode, and the real image still round-trips.
func TestGenStateRefusesForgedVisit(t *testing.T) {
	p := testProfile()
	p.SpatialBlocks, p.BlockRepeats = 4, 2
	g := NewGenerator(p, 5)
	for g.Next(); g.pageLow || g.blocksCut < 2; g.Next() {
	}
	mid := *g // mid-visit on a reused page
	img := image(t, &mid)
	twin := NewGenerator(p, 5)
	if err := flat.Decode(img, twin.Visit); err != nil {
		t.Fatalf("the real mid-visit image: %v", err)
	}
	if again := image(t, twin); !bytes.Equal(again, img) {
		t.Fatal("the real mid-visit image does not round-trip")
	}

	for name, forge := range map[string]func(g *Generator){
		"block 64":                  func(g *Generator) { g.blockIdx = 64 },
		"negative block":            func(g *Generator) { g.blockIdx = -1 },
		"more blocks than a visit":  func(g *Generator) { g.blockIdx, g.blocksCut = 0, p.SpatialBlocks+1 },
		"negative blocks":           func(g *Generator) { g.blocksCut = -1 },
		"two blocks, low reuse":     func(g *Generator) { g.pageLow, g.blockIdx, g.blocksCut = true, 0, 2 },
		"blocks past the page":      func(g *Generator) { g.blockIdx, g.blocksCut = 62, 3 },
		"more repeats than a block": func(g *Generator) { g.repeats = p.BlockRepeats + 1 },
		"negative repeats":          func(g *Generator) { g.repeats = -1 },
		"page beyond 64-bit bytes":  func(g *Generator) { g.page = 1 << 52 },
		"page below the footprint":  func(g *Generator) { g.page = g.sh.baseVPN - 1 },
		"page past the footprint":   func(g *Generator) { g.page = g.sh.baseVPN + uint64(p.FootprintPages) },
		"singleton page, no flag":   func(g *Generator) { g.page = SingletonBase },
		"shared page, no flag":      func(g *Generator) { g.page = SharedBase },
		"shared flag, private page": func(g *Generator) { g.pageShared = true },
		"low-reuse flag, private page": func(g *Generator) {
			g.pageLow, g.blocksCut = true, 1
		},
		"shared and low reuse": func(g *Generator) {
			g.page, g.pageLow, g.pageShared, g.blocksCut = SharedBase, true, true, 1
		},
		"past the shared region": func(g *Generator) {
			g.page, g.pageShared = SharedBase+SharedRegionPages, true
		},
		"low-reuse page in the shared region": func(g *Generator) {
			g.page, g.pageLow, g.blocksCut = SharedBase, true, 1
		},
		"no visit, but a page": func(g *Generator) { g.blocksCut = 0 },
	} {
		forged := mid
		forge(&forged)
		if err := flat.Decode(image(t, &forged), NewGenerator(p, 5).Visit); err == nil {
			t.Errorf("%s: the forged image decoded", name)
		}
	}
}

// TestGenStateZeroVisit: a generator that has not started has no page
// visit, and its zero state is the only one an image with none may
// carry.
func TestGenStateZeroVisit(t *testing.T) {
	p := testProfile()
	img := image(t, NewGenerator(p, 5))
	if err := flat.Decode(img, NewGenerator(p, 5).Visit); err != nil {
		t.Fatalf("a fresh generator's image: %v", err)
	}
	forged := NewGenerator(p, 5)
	forged.page = forged.sh.baseVPN
	if err := flat.Decode(image(t, forged), NewGenerator(p, 5).Visit); err == nil {
		t.Fatal("an image with a page but no visit decoded")
	}
}

// TestGroupStateRefusesForeignHotPage: the hot ring holds only footprint
// pages, so a group image naming any other page fails to decode.
func TestGroupStateRefusesForeignHotPage(t *testing.T) {
	p := testProfile()
	g := NewGenerator(p, 5)
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	if err := flat.Decode(groupImage(t, g), NewGenerator(p, 5).VisitGroup); err != nil {
		t.Fatalf("the real group image: %v", err)
	}
	for name, vpn := range map[string]uint64{
		"below the footprint": g.sh.baseVPN - 1,
		"past the footprint":  g.sh.baseVPN + uint64(p.FootprintPages),
		"a singleton page":    SingletonBase,
	} {
		forged := *g.sh
		forged.hot = make([]uint64, len(g.sh.hot), cap(g.sh.hot))
		copy(forged.hot, g.sh.hot)
		forged.hot[0] = vpn
		fg := *g
		fg.sh = &forged
		if err := flat.Decode(groupImage(t, &fg), NewGenerator(p, 5).VisitGroup); err == nil {
			t.Errorf("%s: the forged group image decoded", name)
		}
	}
}

// groupImage renders g's thread-group checkpoint image.
func groupImage(t *testing.T, g *Generator) []byte {
	t.Helper()
	img, err := flat.Encode(nil, g.VisitGroup)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
