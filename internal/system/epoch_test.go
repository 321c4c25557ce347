package system

import (
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/obs"
)

// runSampled runs one design with an attached epoch sampler.
func runSampled(t testing.TB, design config.L3Design, epochRefs uint64, instr uint64) *Result {
	t.Helper()
	cfg := scaledConfig(design, 6)
	w, err := SingleProgram("sphinx3", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachSampler(obs.NewSampler(epochRefs, 0))
	r, err := m.Run(instr, instr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Epoch deltas must tile the measured window: every epoch covers exactly
// epochRefs references, cycles never run backwards, and the summed
// counter deltas never exceed the run totals (the tail after the last
// full epoch is the only part not covered).
func TestEpochsTileMeasuredWindow(t *testing.T) {
	const epochRefs = 2000
	for _, d := range []config.L3Design{config.Tagless, config.SRAMTag, config.NoL3} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			r := runSampled(t, d, epochRefs, 200_000)
			if len(r.Epochs) == 0 {
				t.Fatal("no epochs captured")
			}
			var refs, l3, hits, lookups, misses uint64
			var prevEnd uint64
			for i, e := range r.Epochs {
				if e.Index != i {
					t.Fatalf("epoch %d has index %d", i, e.Index)
				}
				if e.Refs != epochRefs {
					t.Fatalf("epoch %d covers %d refs, want %d", i, e.Refs, epochRefs)
				}
				if e.EndCycle < prevEnd {
					t.Fatalf("epoch %d ends at cycle %d, before previous end %d", i, e.EndCycle, prevEnd)
				}
				prevEnd = e.EndCycle
				refs += e.Refs
				l3 += e.L3Accesses
				hits += e.L3Hits
				lookups += e.TLBLookups
				misses += e.TLBMisses
			}
			if l3 > r.L3Accesses || hits > r.L3Hits {
				t.Errorf("epoch L3 sums %d/%d exceed run totals %d/%d", l3, hits, r.L3Accesses, r.L3Hits)
			}
			if lookups > r.TLBLookups || misses > r.TLBMisses {
				t.Errorf("epoch TLB sums %d/%d exceed run totals %d/%d", lookups, misses, r.TLBLookups, r.TLBMisses)
			}
			if r.References < refs {
				t.Errorf("epoch refs %d exceed processed references %d", refs, r.References)
			}
		})
	}
}

// The machine reads the tagless controller's free-pool gauges into every
// epoch; they must carry a live free-block count (the controller keeps at
// least alpha blocks free, so zero means the gauge is not wired).
func TestEpochGaugesWired(t *testing.T) {
	r := runSampled(t, config.Tagless, 2000, 100_000)
	for _, e := range r.Epochs {
		if e.FreeBlocks > 0 {
			return
		}
	}
	t.Error("no epoch carries a positive free-block gauge on the tagless design")
}

// With no sampler attached, Result.Epochs stays nil.
func TestNoSamplerNoEpochs(t *testing.T) {
	r := runDesign(t, config.Tagless, "sphinx3", 50_000)
	if r.Epochs != nil || r.EpochsDropped != 0 {
		t.Fatalf("epochs without a sampler: %d/%d", len(r.Epochs), r.EpochsDropped)
	}
}
