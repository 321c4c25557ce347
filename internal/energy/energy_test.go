package energy

import (
	"math"
	"strings"
	"testing"
)

func TestAccount(t *testing.T) {
	m := Model{Cores: 4, CorePowerWatts: 5, FreqGHz: 3}
	// 3e9 cycles at 3GHz = 1 second.
	b := m.Account(3e9, 1e12, 2e12, 5e11)
	if math.Abs(b.CoreJ-20) > 1e-9 {
		t.Errorf("core energy = %v J, want 20", b.CoreJ)
	}
	if b.InPkgJ != 1 || b.OffPkgJ != 2 || b.TagJ != 0.5 {
		t.Errorf("breakdown = %+v", b)
	}
	if math.Abs(b.TotalJ()-23.5) > 1e-9 {
		t.Errorf("total = %v, want 23.5", b.TotalJ())
	}
}

func TestEDP(t *testing.T) {
	// 10 J over 1 second → 10 J·s.
	if got := EDP(10, 3e9, 3); math.Abs(got-10) > 1e-9 {
		t.Errorf("EDP = %v, want 10", got)
	}
	// Halving runtime at equal energy halves EDP.
	if got := EDP(10, 15e8, 3); math.Abs(got-5) > 1e-9 {
		t.Errorf("EDP = %v, want 5", got)
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{CoreJ: 1, InPkgJ: 2, OffPkgJ: 3, TagJ: 4}
	s := b.String()
	if !strings.Contains(s, "total=10") {
		t.Errorf("string = %q", s)
	}
}

func TestFasterRunLowerEDPAtSameEnergy(t *testing.T) {
	m := Model{Cores: 4, CorePowerWatts: 5, FreqGHz: 3}
	slow := m.Account(6e9, 1e12, 1e12, 0)
	fast := m.Account(3e9, 1e12, 1e12, 0)
	edpSlow := EDP(slow.TotalJ(), 6e9, 3)
	edpFast := EDP(fast.TotalJ(), 3e9, 3)
	if edpFast >= edpSlow {
		t.Errorf("EDP fast=%v should beat slow=%v", edpFast, edpSlow)
	}
}
