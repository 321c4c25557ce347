package taglessdram

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"taglessdram/internal/sweepapi"
)

// countSimulations installs a simulateHook that counts actual machine
// executions, restoring the previous hook on cleanup. The counter is
// written by sweep workers; Sweep's completion is the happens-before
// edge that makes the final Load race-free.
func countSimulations(t testing.TB) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	prev := simulateHook
	simulateHook = func(Design, string) { n.Add(1) }
	t.Cleanup(func() { simulateHook = prev })
	return &n
}

func metricsBytes(t *testing.T, rs ...*Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, rs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepDedupsIdenticalJobs is the single-flight regression test: a
// grid containing repeated cells must simulate each distinct cell once,
// with every duplicate receiving an equal but independent Result.
func TestSweepDedupsIdenticalJobs(t *testing.T) {
	n := countSimulations(t)
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	a := Job{Design: Tagless, Workload: "sphinx3", Options: o}
	b := Job{Design: SRAMTag, Workload: "sphinx3", Options: o}
	jobs := []Job{a, a, b, a, b}

	res, err := Sweep(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 2 {
		t.Errorf("parallel sweep of %d jobs (2 distinct) ran %d simulations, want 2", len(jobs), got)
	}
	if len(res) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(res), len(jobs))
	}
	for _, dup := range []int{1, 3} {
		if res[dup] == res[0] {
			t.Errorf("res[%d] aliases res[0]: duplicates must receive private clones", dup)
		}
		if !bytes.Equal(metricsBytes(t, res[dup]), metricsBytes(t, res[0])) {
			t.Errorf("res[%d] metrics differ from res[0]: clone is not bit-identical", dup)
		}
	}
	if res[4] == res[2] {
		t.Errorf("res[4] aliases res[2]")
	}
	if !bytes.Equal(metricsBytes(t, res[4]), metricsBytes(t, res[2])) {
		t.Errorf("res[4] metrics differ from res[2]")
	}

	// A serial sweep must dedup too: the flight memoizes completed calls,
	// not just concurrent ones.
	n.Store(0)
	if _, err := Sweep(context.Background(), jobs, 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 2 {
		t.Errorf("serial sweep ran %d simulations, want 2", got)
	}
}

// TestRunUsesResultCache pins the read-through contract of a single Run:
// first call simulates and stores, second call replays without touching
// the machine.
func TestRunUsesResultCache(t *testing.T) {
	n := countSimulations(t)
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	o.ResultCache = store

	r1, err := Run(Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("two identical cached Runs executed %d simulations, want 1", got)
	}
	if st := store.Stats(); st.Hits != 1 || st.Misses != 1 || st.Stored != 1 || st.Evicted != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 stored, 0 evicted", st)
	}
	if !bytes.Equal(metricsBytes(t, r1), metricsBytes(t, r2)) {
		t.Errorf("cache hit is not bit-identical to the fresh run")
	}
}

// TestModelVersionBumpInvalidates: bumping the model-version stamp must
// orphan every existing entry — the old results answer a different
// simulator generation and may never be replayed.
func TestModelVersionBumpInvalidates(t *testing.T) {
	n := countSimulations(t)
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	o.ResultCache = store

	if _, err := Run(Tagless, "sphinx3", o); err != nil {
		t.Fatal(err)
	}

	old := modelVersion
	t.Cleanup(func() { modelVersion = old })
	modelVersion++

	if _, err := Run(Tagless, "sphinx3", o); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 2 {
		t.Errorf("run after model-version bump executed %d simulations, want 2 (old entry must not hit)", got)
	}
	st := store.Stats()
	if st.Hits != 0 {
		t.Errorf("stats = %+v: a cache hit crossed a model-version bump", st)
	}
	if st.Stored != 2 {
		t.Errorf("stats = %+v, want both generations stored (under distinct keys)", st)
	}
	if store.Len() != 2 {
		t.Errorf("store holds %d entries, want 2 distinct keys across versions", store.Len())
	}
}

// TestSamplerVersionBumpInvalidatesSampled: bumping the sampler version
// must orphan the sampled entries, whose Results it versions, and leave
// the unsampled ones replaying.
func TestSamplerVersionBumpInvalidatesSampled(t *testing.T) {
	n := countSimulations(t)
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	o.ResultCache = store
	sampled := o
	sampled.Sample = &SampleSpec{WindowRefs: 150, WarmRefs: 50, PeriodRefs: 800}

	for _, oo := range []Options{o, sampled} {
		if _, err := Run(Tagless, "sphinx3", oo); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("cold runs executed %d simulations, want 2", got)
	}

	old := samplerVersion
	t.Cleanup(func() { samplerVersion = old })
	samplerVersion++

	n.Store(0)
	if _, err := Run(Tagless, "sphinx3", sampled); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("sampled run after a sampler-version bump executed %d simulations, want 1", got)
	}
	n.Store(0)
	if _, err := Run(Tagless, "sphinx3", o); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 0 {
		t.Errorf("unsampled run after a sampler-version bump executed %d simulations, want 0 (it must replay)", got)
	}
}

// TestIncrementalInvalidation is the incremental-sweep acceptance test:
// after editing a knob only one organization consumes, a re-run must
// re-simulate only that organization's cells and replay the rest.
func TestIncrementalInvalidation(t *testing.T) {
	n := countSimulations(t)
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	o.ResultCache = store
	grid := func(oo Options) []Job {
		var jobs []Job
		for _, d := range []Design{NoL3, SRAMTag, Tagless} {
			jobs = append(jobs, Job{Design: d, Workload: "sphinx3", Options: oo})
		}
		return jobs
	}

	if _, err := Sweep(context.Background(), grid(o), 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 3 {
		t.Fatalf("cold sweep ran %d simulations, want 3", got)
	}

	// Edit a tagless-only knob: only the cTLB cell may re-simulate.
	n.Store(0)
	edited := o
	edited.Alpha = 4
	if _, err := Sweep(context.Background(), grid(edited), 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("after a tagless-only config edit, %d cells re-simulated, want 1 (the cTLB cell)", got)
	}

	// Edit a knob every design consumes: everything re-simulates.
	n.Store(0)
	global := o
	global.MSHRs = 16
	if _, err := Sweep(context.Background(), grid(global), 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("after a global config edit, %d cells re-simulated, want 3", got)
	}

	// Walk-model-aware projection: under the default fixed walk, editing
	// the walk-cache hit cost touches nothing (no model consumes it)...
	n.Store(0)
	pwcEdit := o
	pwcEdit.PWCHitCycles = 3
	if _, err := Sweep(context.Background(), grid(pwcEdit), 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 0 {
		t.Errorf("PWCHitCycles edit under the fixed walk re-simulated %d cells, want 0", got)
	}

	// ...switching the walk model re-simulates every cell (all designs
	// route TLB-miss walks through it)...
	n.Store(0)
	pwc := o
	pwc.WalkModel = "pwc"
	if _, err := Sweep(context.Background(), grid(pwc), 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("switching to the pwc walk re-simulated %d cells, want 3", got)
	}

	// ...and once a walk-cache-bearing model is active, its hit cost is
	// semantic again.
	n.Store(0)
	pwcCost := pwc
	pwcCost.PWCHitCycles = 3
	if _, err := Sweep(context.Background(), grid(pwcCost), 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("PWCHitCycles edit under the pwc walk re-simulated %d cells, want 3", got)
	}
}

// TestFingerprintSemantics pins the facade-level key behavior:
// stability, sensitivity to semantic knobs, insensitivity to execution
// mechanics, and auditability of the stored preimage.
func TestFingerprintSemantics(t *testing.T) {
	o := DefaultOptions()
	j := Job{Design: Tagless, Workload: "sphinx3", Options: o}
	fp1, err := j.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := j.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("Fingerprint not stable: %s vs %s", fp1, fp2)
	}
	if len(fp1) != 64 {
		t.Errorf("Fingerprint %q is not a sha256 hex digest", fp1)
	}

	distinct := map[string]Job{
		"design":   {Design: SRAMTag, Workload: "sphinx3", Options: o},
		"workload": {Design: Tagless, Workload: "mcf", Options: o},
	}
	seed := o
	seed.Seed++
	distinct["seed"] = Job{Design: Tagless, Workload: "sphinx3", Options: seed}
	cap := o
	cap.CacheMB = 8
	distinct["capacity"] = Job{Design: Tagless, Workload: "sphinx3", Options: cap}
	for name, dj := range distinct {
		fp, err := dj.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == fp1 {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}

	mech := o
	mech.Workers = 8
	mech.EpochCapacity = 7
	mech.ExtraDesigns = []Design{AlloyBlock}
	fp, err := (Job{Design: Tagless, Workload: "sphinx3", Options: mech}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != fp1 {
		t.Errorf("non-semantic options changed the fingerprint")
	}

	// The stored preimage must reproduce the key it is filed under.
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ro := o
	ro.Warmup, ro.Measure = 50_000, 50_000
	ro.ResultCache = store
	if _, err := Run(Tagless, "sphinx3", ro); err != nil {
		t.Fatal(err)
	}
	key, pre, err := (Job{Design: Tagless, Workload: "sphinx3", Options: ro}).fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := store.Preimage(key)
	if !ok {
		t.Fatalf("no preimage stored under %s", key)
	}
	if stored != pre {
		t.Errorf("stored preimage differs from the job's:\nstored: %s\n   job: %s", stored, pre)
	}
	if !strings.Contains(stored, "model=") || !strings.Contains(stored, "options={") {
		t.Errorf("stored preimage not auditable: %s", stored)
	}
}

// breakStore replaces an open result cache's directory with a regular
// file, so every later write fails whatever the process's privileges.
func breakStore(t *testing.T, store *ResultCache) {
	t.Helper()
	if err := os.RemoveAll(store.Dir()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Dir(), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailedStoreWriteFailsJob pins the one rule for a result cache that
// cannot store a fresh Result: the job fails with an error naming the
// result cache, and nothing panics. Run, a sweep, a study and a service
// sweep all settle through the same read-through, so all four obey it; a
// service sweep reports it as an error event in its 200 stream.
func TestFailedStoreWriteFailsJob(t *testing.T) {
	store, err := OpenResultCache(filepath.Join(t.TempDir(), "rc"))
	if err != nil {
		t.Fatal(err)
	}
	breakStore(t, store)
	o := DefaultOptions()
	o.Warmup, o.Measure = 20_000, 20_000
	o.ResultCache = store
	ctx := context.Background()
	isStoreErr := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "result cache")
	}

	if r, err := Run(Tagless, "sphinx3", o); r != nil || !isStoreErr(err) {
		t.Errorf("Run = (Result %t, %v), want no Result and a result-cache error", r != nil, err)
	}
	jobs := []Job{{Design: Tagless, Workload: "sphinx3", Options: o}}
	if _, err := Sweep(ctx, jobs, 1); !isStoreErr(err) {
		t.Errorf("Sweep error = %v, want a result-cache error", err)
	}
	if _, err := RunSharedPages(ctx, o, "MIX1", 0); !isStoreErr(err) {
		t.Errorf("RunSharedPages error = %v, want a result-cache error", err)
	}

	svc, err := NewSweepServer(store, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	canon, err := o.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&sweepapi.Request{Options: canon,
		Jobs: []sweepapi.Job{{Design: Tagless.String(), Workload: "sphinx3"}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service sweep status %d, want 200", resp.StatusCode)
	}
	var failed *sweepapi.Event
	for dec := json.NewDecoder(resp.Body); ; {
		var ev sweepapi.Event
		if dec.Decode(&ev) != nil {
			break
		}
		if ev.Type == sweepapi.EventError {
			failed = &ev
		}
	}
	if failed == nil || !strings.Contains(failed.Error, "result cache") {
		t.Errorf("service sweep error event = %+v, want a result-cache error", failed)
	}
}
