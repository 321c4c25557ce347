package taglessdram

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/resultcache"
	"taglessdram/internal/system"
)

// TestCheckpointRoundTrip is the exactness contract that lets a sweep
// warm up once per workload and fan the state out across designs: a run
// that restores a checkpoint must produce a Result whose stored bytes
// equal those of the uninterrupted run that saved it, and re-saving the
// restored machine must reproduce the checkpoint file byte for byte.
// The matrix covers every organization under every walk model and under
// shared TLBs with context switches (flushing and ASID-retaining), and
// the tagless design under each mode that carries state of its own: the
// hot filter, superpages, the NC threshold, the alias table over shared
// pages, LRU and CLOCK replacement under pressure, synchronous eviction,
// cached GIPT updates, refresh and a multi-threaded PARSEC workload.
func TestCheckpointRoundTrip(t *testing.T) {
	base := DefaultOptions()
	base.Warmup, base.Measure = 300_000, 200_000
	type cell struct {
		name     string
		workload string
		edit     func(*Options)
		build    func(*system.Workload) // edits the resolved workload
	}
	var cells []cell
	for _, walk := range []string{"fixed", "pwc", "nested"} {
		walk := walk
		cells = append(cells, cell{name: walk, workload: "sphinx3", edit: func(o *Options) { o.WalkModel = walk }})
	}
	cells = append(cells,
		cell{name: "shared-tlb-ctx-flush", workload: "MIX1", edit: func(o *Options) {
			o.TLBTopology, o.CtxSwitchRefs, o.CtxSwitchFlush = "shared", 20_000, true
		}},
		cell{name: "shared-tlb-ctx-asid", workload: "MIX1", edit: func(o *Options) {
			o.TLBTopology, o.CtxSwitchRefs = "shared", 20_000
		}},
	)
	ctlb := append(cells[:len(cells):len(cells)],
		cell{name: "hot-filter", workload: "mcf", edit: func(o *Options) { o.HotFilterThreshold = 4 }},
		cell{name: "superpages", workload: "sphinx3", edit: func(o *Options) { o.Superpages = true }},
		cell{name: "nc-threshold", workload: "GemsFDTD", edit: func(o *Options) { o.NCAccessThreshold = 32 }},
		cell{name: "alias-shared-MIX1", workload: "MIX1",
			edit: func(o *Options) { o.SharedAliasTable = true },
			build: func(w *system.Workload) {
				for c := range w.PerCore {
					w.PerCore[c].SharedFrac = 0.15
				}
			}},
		cell{name: "LRU-2MB", workload: "mcf", edit: func(o *Options) { o.Policy, o.CacheMB = config.LRU, 2 }},
		cell{name: "CLOCK-2MB", workload: "mcf", edit: func(o *Options) { o.Policy, o.CacheMB = config.CLOCK, 2 }},
		cell{name: "sync-eviction", workload: "mcf", edit: func(o *Options) { o.SynchronousEviction, o.CacheMB = true, 2 }},
		cell{name: "cached-GIPT", workload: "sphinx3", edit: func(o *Options) { o.CachedGIPT = true }},
		cell{name: "refresh", workload: "sphinx3", edit: func(o *Options) { o.Refresh = true }},
		cell{name: "PARSEC", workload: "streamcluster"},
	)
	for _, d := range Organizations() {
		d := d
		cells := cells
		if d == Tagless {
			cells = ctlb
		}
		t.Run(d.String(), func(t *testing.T) {
			for _, c := range cells {
				c := c
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					o := base
					if c.edit != nil {
						c.edit(&o)
					}
					j := Job{Design: d, Workload: c.workload, Options: o}
					if c.build != nil {
						w, err := j.resolve()
						if err != nil {
							t.Fatal(err)
						}
						c.build(&w)
						j.built = &w
					}
					checkpointRoundTrip(t, j)
				})
			}
		})
	}
}

// checkpointRoundTrip runs j straight through while saving its warm
// state, then restores that state into a fresh machine, saves it again
// and measures. The Result bytes and the checkpoint bytes must match.
func checkpointRoundTrip(t *testing.T, j Job) {
	t.Helper()
	// The uninterrupted reference uses the same Warmup/Measure phase pair
	// as the checkpoint path (saving quiesces the event kernel at the
	// phase boundary, so plain Run is not the comparator).
	saved := filepath.Join(t.TempDir(), "warm.ckpt")
	j.Options.CheckpointSave = saved
	straight, err := j.simulate()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}

	w, err := j.resolve()
	if err != nil {
		t.Fatal(err)
	}
	m, err := system.New(configFor(j.Design, j.Options), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m.SaveCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Errorf("re-saving the restored machine changed the checkpoint (%d bytes became %d)", len(data), again.Len())
	}
	restored, err := m.Measure(j.Options.Measure)
	if err != nil {
		t.Fatal(err)
	}

	want, err := resultcache.Encode(straight)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resultcache.Encode(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restored run diverged from the uninterrupted run:\n got: %v\nwant: %v", restored, straight)
	}
}

// TestCheckpointRefusesAnotherRun loads an mcf/cTLB checkpoint into runs
// it was not saved for — another seed, another workload, another victim
// policy and cache size — and requires each load to fail cleanly, while
// the run it was saved for still loads it.
func TestCheckpointRefusesAnotherRun(t *testing.T) {
	o := DefaultOptions()
	o.Warmup, o.Measure = 300_000, 200_000
	o.CheckpointSave = filepath.Join(t.TempDir(), "warm.ckpt")
	if _, err := Run(Tagless, "mcf", o); err != nil {
		t.Fatal(err)
	}
	load := o
	load.CheckpointSave, load.CheckpointLoad = "", o.CheckpointSave
	if _, err := Run(Tagless, "mcf", load); err != nil {
		t.Fatalf("the saving run's own checkpoint was refused: %v", err)
	}
	for _, tc := range []struct {
		name, workload, want string
		edit                 func(*Options)
	}{
		{"seed 7", "mcf", "different workload", func(o *Options) { o.Seed = 7 }},
		{"sphinx3", "sphinx3", "different workload", nil},
		{"omnetpp", "omnetpp", "different workload", nil},
		{"LRU at 2 MB", "mcf", "different configuration", func(o *Options) { o.Policy, o.CacheMB = config.LRU, 2 }},
	} {
		o := load
		if tc.edit != nil {
			tc.edit(&o)
		}
		_, err := Run(Tagless, tc.workload, o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: loading the mcf checkpoint gave %v, want an error about a %s", tc.name, err, tc.want)
		}
	}
}
