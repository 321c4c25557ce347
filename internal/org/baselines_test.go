package org

import (
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/cpu"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

// build makes design d's organization at cfg over real devices, with the
// machine's DeviceMem, latency attribution into rec (which may be nil) and
// observe as the L3 observer, plus a core to issue from.
func build(t *testing.T, d config.L3Design, cfg *config.SystemConfig, rec *lat.Recorder, observe func(sim.Tick, bool)) (Organization, *cpu.Core) {
	t.Helper()
	p := Ports{
		Cfg:     cfg,
		InPkg:   dram.New("in-pkg", cfg.InPkg, cfg.CPU.FreqGHz),
		OffPkg:  dram.New("off-pkg", cfg.OffPkg, cfg.CPU.FreqGHz),
		Kernel:  sim.NewKernel(),
		Observe: observe,
		Lat:     rec,
	}
	p.Mem = &DeviceMem{InPkg: p.InPkg, OffPkg: p.OffPkg, Lat: rec}
	o, err := New(d, p)
	if err != nil {
		t.Fatalf("New(%v): %v", d, err)
	}
	return o, cpu.New(0, 4, 8)
}

// TestTagStatsHitRateAndEnergy: the SRAM tag counts price a hit rate and
// an exact tag energy (an 18 pJ set read per lookup, a 6 pJ entry write
// per fill or eviction), and zeroed counts (the measurement boundary)
// price neither.
func TestTagStatsHitRateAndEnergy(t *testing.T) {
	var s TagStats
	if s.HitRate() != 0 || s.EnergyPJ() != 0 {
		t.Fatalf("zero counts price hit rate %v, energy %v", s.HitRate(), s.EnergyPJ())
	}
	s = TagStats{Lookups: 2, Hits: 1, MissFills: 1}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", s.HitRate())
	}
	if got, want := s.EnergyPJ(), 2*18.0+1*6.0; got != want {
		t.Fatalf("tag energy = %v pJ, want %v", got, want)
	}
}

// TestSRAMTagCounts: every access is a lookup; a hit counts a hit, a miss
// a fill, and a fill over a valid frame an eviction. The filled page
// takes the LRU victim's frame, and the victim is gone.
func TestSRAMTagCounts(t *testing.T) {
	cfg := config.Default()
	cfg.CacheSize = 32 * config.PageSize // 16 ways: 2 sets, even frames in set 0
	o, c := build(t, config.SRAMTag, cfg, nil, func(sim.Tick, bool) {})
	s := o.(*SRAMTag)
	access := func(frame uint64, write bool) {
		o.Access(Request{CPU: c, Key: frame * config.PageSize, Frame: frame, Write: write, Dep: true})
	}
	access(0, true)
	access(0, false)
	victimFrame, _ := s.frames.Lookup(0)
	for f := uint64(2); f <= 30; f += 2 {
		access(f, false)
	}
	if st := o.Stats().Tag; st != (TagStats{Lookups: 17, Hits: 1, MissFills: 16}) {
		t.Fatalf("counts before the set overflows: %+v", st)
	}
	before := s.p.OffPkg.BytesTransferred()
	access(32, false) // evicts frame 0, the LRU page, which is dirty
	if st := o.Stats().Tag; st != (TagStats{Lookups: 18, Hits: 1, MissFills: 17, Evictions: 1}) {
		t.Fatalf("counts after one eviction: %+v", st)
	}
	if line, ok := s.frames.Lookup(32 * config.PageSize); !ok || line != victimFrame {
		t.Fatalf("page 32 in frame %d (resident %v), want the victim's frame %d", line, ok, victimFrame)
	}
	if _, ok := s.frames.Lookup(0); ok {
		t.Fatal("the victim is still resident")
	}
	// The fill reads one page off-package and the dirty victim writes one
	// back.
	if got, want := s.p.OffPkg.BytesTransferred()-before, uint64(2*config.PageSize); got != want {
		t.Fatalf("the fill moved %d off-package bytes, want %d", got, want)
	}
}
