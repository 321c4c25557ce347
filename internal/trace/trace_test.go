package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func testProfile() Profile {
	return Profile{
		Name: "test", MPKI: 20, FootprintPages: 4096, HotPages: 512,
		HotFraction: 0.6, SpatialBlocks: 8, BlockRepeats: 2,
		SingletonFrac: 0.1, WriteFraction: 0.3,
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(testProfile(), 42)
	g2 := NewGenerator(testProfile(), 42)
	for i := 0; i < 10000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	g1 := NewGenerator(testProfile(), 1)
	g2 := NewGenerator(testProfile(), 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if g1.Next().VAddr == g2.Next().VAddr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced near-identical streams (%d/1000 same)", same)
	}
}

func TestFootprintBounded(t *testing.T) {
	p := testProfile()
	g := NewGenerator(p, 7)
	pages := map[uint64]bool{}
	singles := map[uint64]bool{}
	for i := 0; i < 500000; i++ {
		a := g.Next()
		vpn := a.VAddr >> 12
		if vpn >= SingletonBase {
			singles[vpn] = true
		} else {
			pages[vpn] = true
		}
	}
	if len(pages) > p.FootprintPages {
		t.Fatalf("touched %d footprint pages, footprint is %d", len(pages), p.FootprintPages)
	}
	// The permutation cursor must cover the footprint after enough visits.
	if len(pages) < p.FootprintPages {
		t.Fatalf("touched only %d of %d footprint pages", len(pages), p.FootprintPages)
	}
	if len(singles) == 0 {
		t.Fatal("no singleton pages despite a positive singleton fraction")
	}
}

func TestSingletonsNeverRepeat(t *testing.T) {
	p := testProfile()
	p.SingletonFrac = 0.5
	g := NewGenerator(p, 13)
	visits := map[uint64]int{}
	last := uint64(0)
	for i := 0; i < 100000; i++ {
		vpn := g.Next().VAddr >> 12
		if vpn >= SingletonBase && vpn != last {
			visits[vpn]++
		}
		last = vpn
	}
	for vpn, n := range visits {
		if n > 1 {
			t.Fatalf("singleton page %d visited %d times", vpn, n)
		}
	}
}

func TestMPKIApproximation(t *testing.T) {
	// Distinct-block touches per kilo-instruction should approximate the
	// profile MPKI (each distinct block touch is a potential L2 miss).
	p := testProfile()
	g := NewGenerator(p, 3)
	instr := 0
	blocks := map[uint64]bool{}
	var last uint64 = ^uint64(0)
	distinct := 0
	for i := 0; i < 300000; i++ {
		a := g.Next()
		instr += a.Gap + 1
		blk := a.VAddr >> 6
		if blk != last {
			distinct++
			last = blk
		}
		blocks[blk] = true
	}
	got := float64(distinct) / float64(instr) * 1000
	if got < p.MPKI*0.5 || got > p.MPKI*2.0 {
		t.Fatalf("effective block-touch MPKI = %.1f, profile says %.1f", got, p.MPKI)
	}
}

func TestWriteFraction(t *testing.T) {
	p := testProfile()
	g := NewGenerator(p, 5)
	writes := 0
	const N = 100000
	for i := 0; i < N; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / N
	if math.Abs(frac-p.WriteFraction) > 0.02 {
		t.Fatalf("write fraction = %.3f, want ≈%.2f", frac, p.WriteFraction)
	}
}

func TestPageReuseTracksHotFraction(t *testing.T) {
	// High hot-fraction profiles revisit pages far more than low ones.
	hi, lo := testProfile(), testProfile()
	hi.HotFraction, lo.HotFraction = 0.9, 0.1
	reuse := func(p Profile) float64 {
		g := NewGenerator(p, 11)
		visits := map[uint64]int{}
		lastPage := uint64(0)
		for i := 0; i < 120000; i++ {
			pg := g.Next().VAddr >> 12
			if pg != lastPage {
				visits[pg]++
				lastPage = pg
			}
		}
		total, pages := 0, len(visits)
		for _, v := range visits {
			total += v
		}
		return float64(total) / float64(pages)
	}
	rh, rl := reuse(hi), reuse(lo)
	if rh <= rl*1.5 {
		t.Fatalf("hot profile reuse %.2f not clearly above cold %.2f", rh, rl)
	}
}

func TestSingletonsMarkedLowReuse(t *testing.T) {
	p := testProfile()
	p.SingletonFrac = 0.5
	g := NewGenerator(p, 9)
	low, total := 0, 0
	for i := 0; i < 50000; i++ {
		a := g.Next()
		total++
		if a.LowReuse {
			low++
		}
	}
	if low == 0 {
		t.Fatal("no accesses marked low-reuse despite 50% singleton fraction")
	}
	if len(g.LowReusePages()) == 0 {
		t.Fatal("low-reuse page oracle empty")
	}
}

func TestNoSingletonsWhenDisabled(t *testing.T) {
	p := testProfile()
	p.SingletonFrac = 0
	g := NewGenerator(p, 9)
	for i := 0; i < 20000; i++ {
		if g.Next().LowReuse {
			t.Fatal("low-reuse access with singleton fraction 0")
		}
	}
}

func TestStreamingSequential(t *testing.T) {
	p := testProfile()
	p.Streaming = true
	p.HotFraction = 0 // pure streaming
	g := NewGenerator(p, 1)
	var pages []uint64
	lastPage := uint64(0)
	for len(pages) < 100 {
		pg := g.Next().VAddr >> 12
		if pg != lastPage {
			pages = append(pages, pg)
			lastPage = pg
		}
	}
	ascending := 0
	for i := 1; i < len(pages); i++ {
		if pages[i] == pages[i-1]+1 {
			ascending++
		}
	}
	if ascending < 80 {
		t.Fatalf("streaming profile not sequential: %d/99 ascending steps", ascending)
	}
}

func TestSpatialBurst(t *testing.T) {
	p := testProfile()
	p.SingletonFrac = 0
	p.BlockRepeats = 0
	g := NewGenerator(p, 2)
	// Count consecutive accesses within the same page.
	runs := map[int]int{}
	run := 1
	last := g.Next().VAddr >> 12
	for i := 0; i < 50000; i++ {
		pg := g.Next().VAddr >> 12
		if pg == last {
			run++
		} else {
			runs[run]++
			run = 1
			last = pg
		}
	}
	// Bursts should cluster near SpatialBlocks (8) — hot-page revisits
	// can concatenate, so check the mode is >= 8.
	best, bestN := 0, 0
	for r, n := range runs {
		if n > bestN {
			best, bestN = r, n
		}
	}
	if best < p.SpatialBlocks {
		t.Fatalf("modal burst = %d accesses, want >= %d", best, p.SpatialBlocks)
	}
}

func TestThreadGroupSharesPages(t *testing.T) {
	p := testProfile()
	gs, err := NewThreadGroup(p, 4, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("got %d generators", len(gs))
	}
	perThread := make([]map[uint64]bool, 4)
	for ti, g := range gs {
		perThread[ti] = map[uint64]bool{}
		for i := 0; i < 20000; i++ {
			perThread[ti][g.Next().VAddr>>12] = true
		}
	}
	sharedPages := 0
	for pg := range perThread[0] {
		if perThread[1][pg] || perThread[2][pg] || perThread[3][pg] {
			sharedPages++
		}
	}
	if sharedPages == 0 {
		t.Fatal("threads share no pages; multi-threaded sharing not modelled")
	}
}

func TestThreadGroupErrors(t *testing.T) {
	if _, err := NewThreadGroup(testProfile(), 0, 1); err == nil {
		t.Fatal("zero threads accepted")
	}
	bad := testProfile()
	bad.MPKI = 0
	if _, err := NewThreadGroup(bad, 1, 1); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestProfileValidation(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MPKI = -1 },
		func(p *Profile) { p.FootprintPages = 0 },
		func(p *Profile) { p.HotPages = 0 },
		func(p *Profile) { p.HotPages = p.FootprintPages + 1 },
		func(p *Profile) { p.HotFraction = 1.5 },
		func(p *Profile) { p.SpatialBlocks = 0 },
		func(p *Profile) { p.SpatialBlocks = 65 },
		func(p *Profile) { p.BlockRepeats = -1 },
		func(p *Profile) { p.SingletonFrac = -0.1 },
		func(p *Profile) { p.WriteFraction = 2 },
		// NaN fails every ordered comparison, so a range check written
		// as "x < 0 || x > 1" lets it through; +Inf MPKI gives a zero gap.
		func(p *Profile) { p.MPKI = math.NaN() },
		func(p *Profile) { p.MPKI = math.Inf(1) },
		func(p *Profile) { p.HotFraction = math.NaN() },
		func(p *Profile) { p.SingletonFrac = math.NaN() },
		func(p *Profile) { p.WriteFraction = math.NaN() },
		func(p *Profile) { p.DependentFrac = math.NaN() },
		func(p *Profile) { p.SharedFrac = math.NaN() },
		func(p *Profile) { p.SharedFrac = math.Inf(-1) },
	}
	for i, mutate := range cases {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
	good := testProfile()
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestScaled(t *testing.T) {
	p := testProfile()
	s := p.Scaled(4)
	if s.FootprintPages != p.FootprintPages/16 || s.HotPages != p.HotPages/16 {
		t.Fatalf("scaled = %d/%d", s.FootprintPages, s.HotPages)
	}
	// Extreme scaling clamps to 1 page and keeps hot <= footprint.
	tiny := p.Scaled(30)
	if tiny.FootprintPages < 1 || tiny.HotPages < 1 || tiny.HotPages > tiny.FootprintPages {
		t.Fatalf("tiny scale = %+v", tiny)
	}
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllProfilesValid(t *testing.T) {
	for _, name := range append(SPECNames(), PARSECNames()...) {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := p.Scaled(6).Validate(); err != nil {
			t.Errorf("%s scaled: %v", name, err)
		}
	}
}

func TestElevenSPECFourPARSEC(t *testing.T) {
	if got := len(SPECNames()); got != 11 {
		t.Fatalf("SPEC programs = %d, want 11", got)
	}
	if got := len(PARSECNames()); got != 4 {
		t.Fatalf("PARSEC programs = %d, want 4", got)
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nonesuch"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestMixesMatchTable5(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 8 {
		t.Fatalf("mixes = %d, want 8", len(mixes))
	}
	want := map[string][]string{
		"MIX1": {"milc", "leslie3d", "omnetpp", "sphinx3"},
		"MIX5": {"mcf", "soplex", "GemsFDTD", "lbm"},
		"MIX8": {"mcf", "leslie3d", "GemsFDTD", "omnetpp"},
	}
	for name, progs := range want {
		got := mixes[name]
		if len(got) != 4 {
			t.Fatalf("%s has %d programs", name, len(got))
		}
		for i := range progs {
			if got[i] != progs[i] {
				t.Errorf("%s[%d] = %s, want %s", name, i, got[i], progs[i])
			}
		}
	}
	for _, name := range MixNames() {
		progs, ok := mixes[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for _, prog := range progs {
			if _, err := ProfileByName(prog); err != nil {
				t.Errorf("%s references unknown program %s", name, prog)
			}
		}
	}
}

// Property: every generated address stays within the profile's virtual
// footprint window, and gaps are never negative.
func TestStreamWellFormedProperty(t *testing.T) {
	f := func(seed uint64, hot8, spat8 uint8) bool {
		p := testProfile()
		p.HotFraction = float64(hot8%101) / 100
		p.SpatialBlocks = int(spat8%64) + 1
		g := NewGenerator(p, seed)
		base := uint64(1) << 20
		for i := 0; i < 2000; i++ {
			a := g.Next()
			vpn := a.VAddr >> 12
			inFootprint := vpn >= base && vpn < base+uint64(p.FootprintPages)
			if !inFootprint && vpn < SingletonBase {
				return false
			}
			if a.Gap < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
