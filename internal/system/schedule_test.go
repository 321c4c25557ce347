package system

import (
	"bytes"
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/trace"
)

// refAdvance is the scheduling rule advance must keep: nextCore before
// every step, or before every visit when fast is set.
func refAdvance(m *Machine, refs, target uint64, fast bool) error {
	var v trace.Visit
	for start := m.refs; m.refs-start < refs; {
		cc, _ := m.nextCore(target)
		if cc == nil {
			return nil
		}
		var err error
		if fast {
			fetchVisit(cc, &v)
			err = m.ffVisit(cc, &v)
		} else {
			err = m.step(cc)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// refFastForward is fastForward over refAdvance.
func refFastForward(m *Machine, n, target uint64) error {
	if err := m.ffBegin(); err != nil {
		return err
	}
	defer m.org.FastEnd()
	if g := m.tlbShared; g != nil {
		defer func(saved uint64) { g.Invalidations = saved }(g.Invalidations)
	}
	return refAdvance(m, n, target, true)
}

// leadInstr is the most instructions any core has retired.
func leadInstr(m *Machine) uint64 {
	var lead uint64
	for _, cc := range m.cores {
		lead = max(lead, cc.cpu.Instructions)
	}
	return lead
}

// TestAdvanceKeepsNextCoreOrder: advance, which keeps stepping the chosen
// core until it passes its rival, leaves the machine exactly where
// choosing by nextCore before every step or visit does. Twins run 50k
// accurate references, then up to 50k references of fast-forward and 20k
// accurate ones, each of the two stopping early at an instruction target
// that some core reaches, and must then save byte-equal checkpoints. The
// first phase ends on its reference count, the others on their targets
// or counts, so both of advance's stop rules are exercised. The cells:
// MIX1, whose four programs run at different speeds, under shared TLBs
// with a flushing switch every 500 references; milc with a 2 MB cache,
// which makes shootdowns; and streamcluster, whose threads share one
// generator's page state.
func TestAdvanceKeepsNextCoreOrder(t *testing.T) {
	cells := []struct {
		name  string
		build func() (*config.SystemConfig, Workload, error)
	}{
		{"MIX1", func() (*config.SystemConfig, Workload, error) {
			cfg := scaledConfig(config.Tagless, 6)
			cfg.TLBTopology = "shared"
			cfg.CtxSwitchRefs, cfg.CtxSwitchFlush = 500, true
			w, err := Mix("MIX1", 6, 1)
			return cfg, w, err
		}},
		{"milc/smallcache", func() (*config.SystemConfig, Workload, error) {
			cfg := scaledConfig(config.Tagless, 6)
			cfg.CacheSize = 2 * config.MB
			w, err := SingleProgram("milc", 6, 1)
			return cfg, w, err
		}},
		{"streamcluster", func() (*config.SystemConfig, Workload, error) {
			w, err := MultiThread("streamcluster", 6, 1)
			return scaledConfig(config.Tagless, 6), w, err
		}},
	}
	// Each phase runs refs references, stopping early once every core is
	// reach instructions past the phase's leading core (no target when
	// reach is zero).
	phases := []struct {
		refs, reach uint64
		fast        bool
	}{
		{50_000, 0, false},
		{50_000, 150_000, true},
		{20_000, 60_000, false},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			var twins [2]*Machine
			for i := range twins {
				cfg, w, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				if twins[i], err = New(cfg, w); err != nil {
					t.Fatal(err)
				}
			}
			ref, m := twins[0], twins[1]
			for _, ph := range phases {
				target := leadInstr(ref) + ph.reach
				if ph.reach == 0 {
					target = ^uint64(0)
				}
				var refErr, err error
				if ph.fast {
					refErr, err = refFastForward(ref, ph.refs, target), m.fastForward(ph.refs, target)
				} else {
					refErr, err = refAdvance(ref, ph.refs, target, false), m.advance(ph.refs, target, false)
				}
				if refErr != nil || err != nil {
					t.Fatal(refErr, err)
				}
				if ph.reach > 0 && leadInstr(m) < target {
					t.Fatalf("no core reached the target %d, so the target check went unexercised", target)
				}
			}
			var imgs [2]bytes.Buffer
			for i, tw := range twins {
				if err := tw.SaveCheckpoint(&imgs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(imgs[0].Bytes(), imgs[1].Bytes()) {
				t.Fatalf("advance's machine differs from nextCore-per-step's after %d references (images of %d and %d bytes)",
					ref.refs, imgs[0].Len(), imgs[1].Len())
			}
		})
	}
}
