package org

import (
	"fmt"
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

// TestAccessConservationAllDesigns drives one reference down every hit and
// miss path of every registered organization against real cycle-level
// devices and asserts exact conservation: the cycles each path attributes
// must sum to the end-to-end latency it reports to Observe, for every
// single commit (zero residue).
func TestAccessConservationAllDesigns(t *testing.T) {
	for _, d := range Registered() {
		d := d
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			cfg := config.Default()
			cfg.Design = d
			cfg.InPkg.SizeBytes >>= 6
			cfg.OffPkg.SizeBytes >>= 6
			cfg.CacheSize >>= 6
			if cfg.CacheSize > cfg.InPkg.SizeBytes {
				cfg.InPkg.SizeBytes = cfg.CacheSize
			}

			rec := &lat.Recorder{}
			rec.Enable()
			var commits uint64
			o, core := build(t, d, cfg, rec, func(d sim.Tick, hit bool) {
				rec.CommitL3(d)
				commits++
			})

			access := func(key uint64, nc bool) {
				t.Helper()
				rec.Begin()
				o.Access(Request{
					CPU:    core,
					Key:    key,
					Frame:  (key &^ PABit) / config.PageSize,
					Offset: key % config.PageSize,
					NC:     nc,
					Dep:    true,
				})
				s := rec.Summary()
				if s.L3.Commits != commits {
					t.Fatalf("access did not commit: %d commits recorded, %d observed", s.L3.Commits, commits)
				}
				if s.L3.Residue != 0 {
					t.Fatalf("conservation violated after commit %d: residue %d cycles (breakdown %v, measured %d)",
						commits, s.L3.Residue, s.L3.Cycles, s.L3.Measured)
				}
			}

			switch d {
			case config.Tagless:
				access(PABit|64, true) // non-cacheable: off-package block path
				access(0, false)       // cTLB hit: bare in-package block path
			case config.Banshee:
				access(0, false) // bypass: below the fill threshold
				access(0, false) // fill: critical-block-first page fetch
				access(0, false) // hit: bare in-package block access
			default:
				access(0, false) // miss/fill (or the design's only path)
				access(0, false) // hit (same address)
			}

			// Dirty-victim writeback: background attribution, trivially
			// conserved but must be recorded.
			s := rec.Summary()
			bgBefore := s.Bg.Commits
			o.Writeback(core.Now(), 4096)
			s = rec.Summary()
			if s.Bg.Commits != bgBefore+1 {
				t.Errorf("writeback not recorded: bg commits %d, want %d", s.Bg.Commits, bgBefore+1)
			}
			if s.Bg.Residue != 0 {
				t.Errorf("background residue %d, want 0", s.Bg.Residue)
			}
			if s.L3.Measured == 0 {
				t.Error("no stall cycles measured across access paths")
			}
		})
	}
}
