package trace

import (
	"strings"
	"testing"
)

func TestAnalyzeMatchesProfile(t *testing.T) {
	p := testProfile()
	p.SharedFrac = 0.1
	g := NewGenerator(p, 3)
	r := Analyze(g, 200000)

	if r.Accesses != 200000 {
		t.Fatalf("accesses = %d", r.Accesses)
	}
	// Measured aggregates must track the profile within loose tolerance.
	if r.BlockMPKI < p.MPKI*0.5 || r.BlockMPKI > p.MPKI*2 {
		t.Errorf("block MPKI = %.1f, profile %.1f", r.BlockMPKI, p.MPKI)
	}
	// Shared (library) pages are read-only, so the measured write
	// fraction sits a little below the profile's.
	if d := r.WriteFraction - p.WriteFraction; d > 0.02 || d < -0.06 {
		t.Errorf("write fraction = %.3f, profile %.2f", r.WriteFraction, p.WriteFraction)
	}
	if r.FootprintPages > p.FootprintPages {
		t.Errorf("footprint = %d > profile %d", r.FootprintPages, p.FootprintPages)
	}
	if r.SingletonPages == 0 {
		t.Error("no singleton pages measured despite singleton fraction")
	}
	if r.SharedPages == 0 {
		t.Error("no shared pages measured despite shared fraction")
	}
	if r.VisitsPerPage <= 1 {
		t.Errorf("visits/page = %.2f, want > 1 (hot set reuse)", r.VisitsPerPage)
	}
	if r.PageReuse.Count() == 0 {
		t.Error("no reuse distances recorded")
	}
}

func TestAnalyzeHotVsColdReuse(t *testing.T) {
	hot, cold := testProfile(), testProfile()
	hot.HotFraction, cold.HotFraction = 0.9, 0.05
	rh := Analyze(NewGenerator(hot, 1), 100000)
	rc := Analyze(NewGenerator(cold, 1), 100000)
	if rh.VisitsPerPage <= rc.VisitsPerPage {
		t.Fatalf("hot profile reuse %.2f not above cold %.2f",
			rh.VisitsPerPage, rc.VisitsPerPage)
	}
	// Hot reuse distances should be shorter at the median.
	if rh.PageReuse.Quantile(50) >= rc.PageReuse.Quantile(50) {
		t.Fatalf("hot p50 reuse %.0f not below cold %.0f",
			rh.PageReuse.Quantile(50), rc.PageReuse.Quantile(50))
	}
}

func TestAnalyzeReportString(t *testing.T) {
	r := Analyze(NewGenerator(testProfile(), 2), 20000)
	s := r.String()
	for _, want := range []string{"accesses", "block MPKI", "footprint", "visits/page"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzeZero(t *testing.T) {
	rep, _ := NewReplay([]Access{{VAddr: 1 << 20 << 12}})
	r := Analyze(rep, 0)
	if r.Accesses != 0 || r.BlockMPKI != 0 {
		t.Fatalf("zero-length analysis = %+v", r)
	}
	_ = r.String() // must not panic
}

// TestAnalyzeAllProfiles sanity-checks every calibrated profile: measured
// MPKI within 2x of spec, footprint within bounds, write fraction close.
func TestAnalyzeAllProfiles(t *testing.T) {
	for _, name := range append(SPECNames(), PARSECNames()...) {
		p, _ := ProfileByName(name)
		sp := p.Scaled(6)
		r := Analyze(NewGenerator(sp, 1), 150000)
		if r.BlockMPKI < p.MPKI*0.4 || r.BlockMPKI > p.MPKI*2.5 {
			t.Errorf("%s: measured MPKI %.1f vs profile %.1f", name, r.BlockMPKI, p.MPKI)
		}
		if r.FootprintPages > sp.FootprintPages {
			t.Errorf("%s: footprint %d exceeds spec %d", name, r.FootprintPages, sp.FootprintPages)
		}
	}
}
