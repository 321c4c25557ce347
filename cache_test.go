package taglessdram_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	taglessdram "taglessdram"
)

func cacheMetricsBytes(t *testing.T, rs ...*taglessdram.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := taglessdram.WriteMetricsJSON(&buf, rs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallOptions() taglessdram.Options {
	o := taglessdram.DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	return o
}

// TestEpochCapacityChangeReplaysFresh: the epoch ring's bound shapes
// Result.Epochs, so a run at a different capacity must not replay an
// entry stored under another one. A warm replay after the change has to
// be byte-identical to a fresh run at the new capacity.
func TestEpochCapacityChangeReplaysFresh(t *testing.T) {
	store, err := taglessdram.OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := smallOptions()
	o.EpochRefs = 2000
	fresh, err := taglessdram.Run(taglessdram.Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	small := o
	small.EpochCapacity = 2
	small.ResultCache = store
	truncated, err := taglessdram.Run(taglessdram.Tagless, "sphinx3", small)
	if err != nil {
		t.Fatal(err)
	}
	if truncated.EpochsDropped == 0 {
		t.Fatalf("capacity 2 kept all %d epochs; the test needs a truncated series", len(truncated.Epochs))
	}
	o.ResultCache = store
	replay, err := taglessdram.Run(taglessdram.Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cacheMetricsBytes(t, replay), cacheMetricsBytes(t, fresh); !bytes.Equal(got, want) {
		t.Errorf("run at the default epoch capacity replayed the capacity-2 entry: %d epochs (%d dropped), fresh run has %d (%d dropped)",
			len(replay.Epochs), replay.EpochsDropped, len(fresh.Epochs), fresh.EpochsDropped)
	}
}

// TestCacheHitBitIdentityAllOrganizations replays every registered
// organization from the cache and asserts the replayed Result serializes
// byte-for-byte like the freshly simulated one — the soundness claim the
// whole cache rests on, checked per organization because each exercises
// a different slice of the Result (tag energy, cTLB counters, alias
// tables, frequency counters, ...).
func TestCacheHitBitIdentityAllOrganizations(t *testing.T) {
	store, err := taglessdram.OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orgs := taglessdram.Organizations()
	for _, d := range orgs {
		o := smallOptions()
		o.EpochRefs = 10_000 // include the epoch series in the round trip
		fresh, err := taglessdram.Run(d, "sphinx3", o)
		if err != nil {
			t.Fatalf("%v: fresh: %v", d, err)
		}
		o.ResultCache = store
		miss, err := taglessdram.Run(d, "sphinx3", o)
		if err != nil {
			t.Fatalf("%v: store: %v", d, err)
		}
		hit, err := taglessdram.Run(d, "sphinx3", o)
		if err != nil {
			t.Fatalf("%v: hit: %v", d, err)
		}
		fb, mb, hb := cacheMetricsBytes(t, fresh), cacheMetricsBytes(t, miss), cacheMetricsBytes(t, hit)
		if !bytes.Equal(fb, mb) {
			t.Errorf("%v: cached run differs from uncached run", d)
		}
		if !bytes.Equal(fb, hb) {
			t.Errorf("%v: cache hit is not bit-identical to the fresh simulation", d)
		}
	}
	st := store.Stats()
	want := uint64(len(orgs))
	if st.Hits != want || st.Misses != want || st.Stored != want || st.Evicted != 0 {
		t.Errorf("stats = %+v, want %d hits, %d misses, %d stored, 0 evicted", st, want, want, want)
	}
}

// TestCorruptEntriesAreMissesNotErrors damages cache entries three ways
// — flipped payload bytes, truncation, garbage — and asserts each
// lookup degrades to a miss that evicts the bad entry and re-stores a
// good one. A damaged cache may cost time, never correctness.
func TestCorruptEntriesAreMissesNotErrors(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bitflip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0xff
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"garbage", func(b []byte) []byte { return []byte("not a cache entry") }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := taglessdram.OpenResultCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			o := smallOptions()
			o.ResultCache = store
			fresh, err := taglessdram.Run(taglessdram.Tagless, "sphinx3", o)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := filepath.Glob(filepath.Join(dir, "*.res"))
			if err != nil || len(entries) != 1 {
				t.Fatalf("want exactly one entry, got %v (%v)", entries, err)
			}
			data, err := os.ReadFile(entries[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entries[0], tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			r, err := taglessdram.Run(taglessdram.Tagless, "sphinx3", o)
			if err != nil {
				t.Fatalf("corrupt entry surfaced as an error: %v", err)
			}
			if !bytes.Equal(cacheMetricsBytes(t, r), cacheMetricsBytes(t, fresh)) {
				t.Errorf("re-simulated result differs from the original")
			}
			st := store.Stats()
			if st.Hits != 0 {
				t.Errorf("stats = %+v: corrupt entry produced a hit", st)
			}
			if st.Evicted != 1 {
				t.Errorf("stats = %+v, want the corrupt entry evicted", st)
			}
			if st.Misses != 2 || st.Stored != 2 {
				t.Errorf("stats = %+v, want 2 misses and 2 stores (initial + heal)", st)
			}

			// The slot must have healed: next lookup is a clean hit.
			if _, err := taglessdram.Run(taglessdram.Tagless, "sphinx3", o); err != nil {
				t.Fatal(err)
			}
			if st := store.Stats(); st.Hits != 1 {
				t.Errorf("stats after heal = %+v, want 1 hit", st)
			}
		})
	}
}

// TestConcurrentSweepSharesCache runs a wide sweep twice against one
// store with 8 workers — first cold (concurrent writers), then warm
// (concurrent readers) — and asserts the warm pass simulates nothing and
// reproduces the cold pass byte-for-byte. Under -race this is also the
// store's concurrency test.
func TestConcurrentSweepSharesCache(t *testing.T) {
	store, err := taglessdram.OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := smallOptions()
	o.ResultCache = store
	var jobs []taglessdram.Job
	for _, d := range []taglessdram.Design{taglessdram.SRAMTag, taglessdram.Tagless} {
		for _, w := range []string{"sphinx3", "mcf", "milc", "MIX1"} {
			jobs = append(jobs, taglessdram.Job{Design: d, Workload: w, Options: o})
		}
	}
	// Duplicate the grid so the single-flight and the store interact
	// under contention.
	jobs = append(jobs, jobs...)

	cold, err := taglessdram.Sweep(context.Background(), jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Stored != 8 {
		t.Errorf("cold stats = %+v, want 8 stored (16 jobs, 8 distinct)", st)
	}

	warm, err := taglessdram.Sweep(context.Background(), jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	wst := store.Stats()
	if wst.Misses != st.Misses {
		t.Errorf("warm sweep missed: cold %+v, warm %+v", st, wst)
	}
	if wst.Hits <= st.Hits {
		t.Errorf("warm sweep produced no hits: cold %+v, warm %+v", st, wst)
	}
	if !bytes.Equal(cacheMetricsBytes(t, cold...), cacheMetricsBytes(t, warm...)) {
		t.Errorf("warm sweep output differs from cold sweep")
	}
}
