// Package energy aggregates the energy model: DRAM device energy (from the
// dram package's per-event accounting), SRAM tag-array energy, and core
// energy (average power × runtime, the McPAT-derived constant the paper
// adds identically to every design). It reports total energy and the
// energy-delay product the paper plots.
package energy

import "fmt"

// Breakdown itemizes where the joules went.
type Breakdown struct {
	CoreJ   float64 // cores + on-die caches (power × time)
	InPkgJ  float64 // in-package DRAM
	OffPkgJ float64 // off-package DRAM
	TagJ    float64 // on-die SRAM tag array (zero for tagless designs)
}

// TotalJ returns the summed energy in joules.
func (b Breakdown) TotalJ() float64 { return b.CoreJ + b.InPkgJ + b.OffPkgJ + b.TagJ }

// String implements fmt.Stringer.
func (b Breakdown) String() string {
	return fmt.Sprintf("core=%.4gJ inpkg=%.4gJ offpkg=%.4gJ tag=%.4gJ total=%.4gJ",
		b.CoreJ, b.InPkgJ, b.OffPkgJ, b.TagJ, b.TotalJ())
}

// Model converts raw activity counts into a Breakdown.
type Model struct {
	Cores          int
	CorePowerWatts float64 // per core, including its share of on-die caches
	FreqGHz        float64
}

// Account computes the breakdown for a run of `cycles` CPU cycles with the
// given device and tag energies (picojoules).
func (m Model) Account(cycles uint64, inPkgPJ, offPkgPJ, tagPJ float64) Breakdown {
	seconds := float64(cycles) / (m.FreqGHz * 1e9)
	return Breakdown{
		CoreJ:   float64(m.Cores) * m.CorePowerWatts * seconds,
		InPkgJ:  inPkgPJ * 1e-12,
		OffPkgJ: offPkgPJ * 1e-12,
		TagJ:    tagPJ * 1e-12,
	}
}

// EDP returns the energy-delay product (joule-seconds) for a run.
func EDP(totalJ float64, cycles uint64, freqGHz float64) float64 {
	seconds := float64(cycles) / (freqGHz * 1e9)
	return totalJ * seconds
}
