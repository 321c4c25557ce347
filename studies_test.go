package taglessdram

import (
	"context"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"taglessdram/internal/resultcache"
)

// storedResults decodes every entry a result cache holds, reading each
// back by the key its file name carries.
func storedResults(t *testing.T, store *ResultCache) map[string]*Result {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(store.Dir(), "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*Result, len(names))
	for _, name := range names {
		hexKey := strings.TrimSuffix(filepath.Base(name), ".res")
		raw, err := hex.DecodeString(hexKey)
		if err != nil || len(raw) != len(resultcache.Key{}) {
			t.Fatalf("entry %s is not named by a key", name)
		}
		var key resultcache.Key
		copy(key[:], raw)
		r, ok := store.Get(key)
		if !ok {
			t.Fatalf("entry %s does not read back", hexKey)
		}
		out[hexKey] = r
	}
	return out
}

// TestStudiesHonourSample: the shared-page and fairness studies run every
// cell under the caller's Options, Sample included, so each entry they
// write to the result cache is a sampled Result. The fairness study's
// run-alone cells once ran unsampled, and its weighted speedup divided a
// sampled mix IPC by a full-run alone IPC.
func TestStudiesHonourSample(t *testing.T) {
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 200_000
	o.Sample = &SampleSpec{WindowRefs: 500, WarmRefs: 200, PeriodRefs: 5000}
	o.ResultCache = store
	ctx := context.Background()
	if _, err := RunSharedPages(ctx, o, "MIX1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFairness(ctx, o, "MIX5"); err != nil {
		t.Fatal(err)
	}
	entries := storedResults(t, store)
	// 3 shared-page cells, then 3 mix cells and 12 run-alone cells.
	if len(entries) != 18 {
		t.Errorf("the studies wrote %d entries, want 18", len(entries))
	}
	for key, r := range entries {
		if r.Sampled == nil {
			t.Errorf("entry %s (%s/%v) is an unsampled Result", key[:12], r.Workload, r.Design)
		}
	}
}

// TestCheckpointStoreKeysByTraceDigest pins the warm-state store's key:
// a workload's trace digest, not its name. The shared-page study's MIX1
// is a modified MIX1 on the same configuration as Figure 9's, and MIX5's
// one-core run-alone mcf shares its name and seed with the four-core mcf;
// neither may restore the other's warm state. So each study's rows must
// not depend on what the store held before, and the store holds one
// state per distinct (trace digest, configuration, warm-up).
func TestCheckpointStoreKeysByTraceDigest(t *testing.T) {
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	ctx := context.Background()
	studies := func(o Options) ([]SharedPageRow, []FairnessRow) {
		t.Helper()
		shared, err := RunSharedPages(ctx, o, "MIX1", 0)
		if err != nil {
			t.Fatal(err)
		}
		fair, err := RunFairness(ctx, o, "MIX5")
		if err != nil {
			t.Fatal(err)
		}
		return shared, fair
	}

	warm := NewCheckpointStore()
	o.Checkpoints = warm
	for _, wl := range []string{"MIX1", "mcf"} {
		for _, d := range []Design{SRAMTag, Tagless} {
			if _, err := Run(d, wl, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := warm.Len(); got != 4 {
		t.Fatalf("4 named cells left %d warm states, want 4", got)
	}
	shared, fair := studies(o)
	// 3 shared-page variants, 3 MIX5 cells and 12 run-alone cells, none
	// of them a state the named cells deposited.
	if got := warm.Len(); got != 4+3+15 {
		t.Errorf("store holds %d warm states after the studies, want %d", got, 4+3+15)
	}

	fresh := NewCheckpointStore()
	o.Checkpoints = fresh
	freshShared, freshFair := studies(o)
	if got := fresh.Len(); got != 3+15 {
		t.Errorf("fresh store holds %d warm states after the studies, want %d", got, 3+15)
	}
	if !reflect.DeepEqual(shared, freshShared) {
		t.Errorf("shared-page rows depend on the store's earlier states:\n got: %+v\nwant: %+v", shared, freshShared)
	}
	if !reflect.DeepEqual(fair, freshFair) {
		t.Errorf("fairness rows depend on the store's earlier states:\n got: %+v\nwant: %+v", fair, freshFair)
	}
}
