package taglessdram

import (
	"bytes"
	"testing"

	"taglessdram/internal/lat"
)

// TestWalkModelConservation drives a TLB-missing workload through every
// walk model on every registered organization and checks the hard
// cycle-accounting invariants: zero residue in both scopes, and the walk
// latency carried by exactly the components the model is specified to
// charge — pt_walk for the single-dimensional models, ptwalk_guest +
// ptwalk_host for the nested walk — summing into (never exceeding) the
// measured handler stall.
func TestWalkModelConservation(t *testing.T) {
	for _, walk := range []string{"fixed", "pwc", "nested"} {
		for _, d := range Organizations() {
			o := quickOpts()
			o.WalkModel = walk
			r, err := Run(d, "sphinx3", o)
			if err != nil {
				t.Fatalf("%s/%v: %v", walk, d, err)
			}
			if err := CheckLatencyAttribution(r); err != nil {
				t.Errorf("%s/%v: %v", walk, d, err)
			}
			if r.TLBMisses == 0 {
				t.Fatalf("%s/%v: no TLB misses; the walk model was never exercised", walk, d)
			}
			h := &r.Latency.Handler
			flat := h.Cycles[lat.PTWalk]
			guest, host := h.Cycles[lat.PTWalkGuest], h.Cycles[lat.PTWalkHost]
			switch walk {
			case "fixed", "pwc":
				if flat == 0 {
					t.Errorf("%s/%v: pt_walk carried no cycles over %d misses", walk, d, r.TLBMisses)
				}
				if guest != 0 || host != 0 {
					t.Errorf("%s/%v: nested components charged (guest=%d host=%d) by a flat walk", walk, d, guest, host)
				}
			case "nested":
				if guest == 0 || host == 0 {
					t.Errorf("%s/%v: nested walk charged guest=%d host=%d cycles, want both positive", walk, d, guest, host)
				}
				if flat != 0 {
					t.Errorf("%s/%v: flat pt_walk charged %d cycles under the nested walk", walk, d, flat)
				}
			}
			if sum := flat + guest + host; sum == 0 || sum > h.Measured {
				t.Errorf("%s/%v: walk components sum to %d cycles, handler stall %d", walk, d, sum, h.Measured)
			}
		}
	}
}

// TestWalkModelOrdering sanity-checks the models' relative cost on one
// workload: the nested walk's up-to-24-reference misses must cost more
// handler stall than the fixed single-charge walk.
func TestWalkModelOrdering(t *testing.T) {
	stall := func(walk string) uint64 {
		o := quickOpts()
		o.WalkModel = walk
		r, err := Run(Tagless, "mcf", o)
		if err != nil {
			t.Fatalf("%s: %v", walk, err)
		}
		return uint64(r.Latency.Handler.Measured)
	}
	fixed, nested := stall("fixed"), stall("nested")
	if nested <= fixed {
		t.Errorf("nested walk handler stall %d <= fixed %d; 2D walk cost not modeled", nested, fixed)
	}
}

// TestSharedTLBTopology runs a multi-programmed mix over the shared-L2
// topology with nested paging and periodic context switches — the
// stack's most adversarial configuration — and checks conservation,
// determinism, and that the topology's cross-core machinery actually
// fired.
func TestSharedTLBTopology(t *testing.T) {
	mk := func() *Result {
		o := quickOpts()
		o.WalkModel = "nested"
		o.TLBTopology = "shared"
		o.CtxSwitchRefs = 20_000
		o.CtxSwitchFlush = true
		r, err := Run(Tagless, "MIX1", o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := mk()
	if err := CheckLatencyAttribution(r); err != nil {
		t.Error(err)
	}
	if r.CtxSwitches == 0 {
		t.Error("no context switches applied under CtxSwitchRefs")
	}
	if r.Latency.Bg.Cycles[lat.TLBShootdown] == 0 {
		t.Error("context-switch flushes charged no tlb_shootdown cycles")
	}
	if !bytes.Equal(metricsBytes(t, r), metricsBytes(t, mk())) {
		t.Error("nested+shared run is not deterministic")
	}
}

// TestSharedTopologyRetainPolicy checks the ASID-retain policy: foreign
// injection must evict real capacity (cross-core invalidations or plain
// pressure) without destroying correctness.
func TestSharedTopologyRetainPolicy(t *testing.T) {
	o := quickOpts()
	o.TLBTopology = "shared"
	o.CtxSwitchRefs = 10_000
	r, err := Run(Tagless, "MIX1", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLatencyAttribution(r); err != nil {
		t.Error(err)
	}
	if r.CtxSwitches == 0 {
		t.Error("no context switches applied")
	}
	// Retain mode must not charge shootdown time (switches are untimed
	// capacity pressure).
	if got := r.Latency.Bg.Cycles[lat.TLBShootdown]; got != 0 {
		t.Errorf("retain policy charged %d tlb_shootdown cycles, want 0", got)
	}
}

// TestPrivateTopologyUnchanged guards the tentpole's zero-perturbation
// requirement from the facade side: an explicit -tlb-topo private run is
// bit-identical to the default.
func TestPrivateTopologyUnchanged(t *testing.T) {
	a, err := Run(Tagless, "sphinx3", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts()
	o.TLBTopology = "private"
	o.WalkModel = "fixed"
	b, err := Run(Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metricsBytes(t, a), metricsBytes(t, b)) {
		t.Error("explicit private/fixed run differs from the default")
	}
}
