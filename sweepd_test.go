package taglessdram

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"taglessdram/internal/sweepapi"
)

// newTestSweepServer starts a sweep service over a fresh result cache.
func newTestSweepServer(t *testing.T, maxWorkers, maxJobs int) (*SweepServer, string) {
	t.Helper()
	store, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewSweepServer(store, maxWorkers, maxJobs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts.URL
}

// blockSimulations gates every machine simulation: the first one signals
// started, and all of them wait for release before proceeding. Tests use
// it to hold a sweep in-flight deterministically.
func blockSimulations(t *testing.T) (started chan struct{}, release chan struct{}) {
	t.Helper()
	started, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	prev := simulateHook
	simulateHook = func(d Design, w string) {
		if prev != nil {
			prev(d, w)
		}
		once.Do(func() { close(started) })
		<-release
	}
	t.Cleanup(func() { simulateHook = prev })
	return started, release
}

func remoteTestOpts() Options {
	o := DefaultOptions()
	o.Warmup, o.Measure = 50_000, 50_000
	return o
}

// malformedRequests are sweep bodies a server limited to 3 jobs must
// answer with 400. They also seed FuzzSweepRequest.
var malformedRequests = []struct {
	name string
	body string
}{
	{"truncated JSON", `{"jobs": [`},
	{"unknown field", `{"bogus": 1}`},
	{"empty request", `{}`},
	{"designs without workloads", `{"designs": ["cTLB"]}`},
	{"workloads without designs", `{"workloads": ["sphinx3"]}`},
	{"unknown design", `{"designs": ["cTLB2"], "workloads": ["sphinx3"]}`},
	{"unknown workload", `{"designs": ["cTLB"], "workloads": ["nosuchprog"],
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1}}`},
	{"zero measure", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 0, "seed": 1}}]}`},
	{"unknown walk model", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "walk_model": "psychic"}}]}`},
	{"unknown policy", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "policy": "MRU"}}]}`},
	{"unknown option", `{"designs": ["cTLB"], "workloads": ["sphinx3"],
		"options": {"bogus": 1}}`},
	{"local-only option", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "workers": 2}}]}`},
	{"removed memory_walk option", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "memory_walk": true}}]}`},
	{"too many jobs", `{"designs": ["NoL3", "BI", "SRAM", "cTLB", "Ideal"], "workloads": ["sphinx3"]}`},
	{"negative cache_mb", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "cache_mb": -1}}]}`},
	{"negative l2_tlb_entries", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "l2_tlb_entries": -1}}]}`},
	{"negative alpha", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "alpha": -1}}]}`},
	{"negative mshrs", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "mshrs": -1}}]}`},
	{"cache larger than off-package memory", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "cache_mb": 129}}]}`},
	{"petabyte cache", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "cache_mb": 1073741824}}]}`},
	{"cache bytes overflow int64", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "cache_mb": 17592186044416}}]}`},
	{"TLB larger than off-package memory", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "l2_tlb_entries": 1099511627776}}]}`},
	{"negative hot_filter_threshold", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "hot_filter_threshold": -1}}]}`},
	{"negative nc_access_threshold", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "nc_access_threshold": -1}}]}`},
	{"hot filter threshold 1", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "hot_filter_threshold": 1}}]}`},
	{"superpages with hot filter", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "superpages": true, "hot_filter_threshold": 8}}]}`},
	{"alpha above cache blocks", `{"jobs": [{"design": "cTLB", "workload": "sphinx3",
		"options": {"shift": 6, "warmup": 1000, "measure": 1000, "seed": 1, "alpha": 5000}}]}`},
}

// TestSweepdRejectsMalformedRequests pins the service's validation: every
// kind of client mistake must come back as a structured 4xx ErrorReply,
// never a 500 or a hung stream. The sizing cases guard the process
// itself: accepted, a negative knob would run the default machine under
// another cache key, an overflowing cache size would fail inside a 200
// stream, and a petabyte cache or TLB would exhaust memory when the
// machine is built.
func TestSweepdRejectsMalformedRequests(t *testing.T) {
	_, url := newTestSweepServer(t, 1, 3)
	for _, tc := range malformedRequests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusBadRequest)
			}
			var er sweepapi.ErrorReply
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("body is not an ErrorReply: %v", err)
			}
			if er.Error == "" {
				t.Fatal("ErrorReply.Error is empty")
			}
		})
	}

	t.Run("GET sweep", func(t *testing.T) {
		resp, err := http.Get(url + "/v1/sweep")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
	t.Run("unknown endpoint", func(t *testing.T) {
		resp, err := http.Get(url + "/v1/nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
	})
}

// FuzzSweepRequest runs arbitrary bodies through the sweep handler's
// own decode and validation path. Every body yields a client error or
// jobs the simulator can build: each accepted cell has a fingerprint, a
// configuration that validates, and a DRAM cache no larger than the
// memory it caches. Nothing panics and nothing simulates.
func FuzzSweepRequest(f *testing.F) {
	for _, tc := range malformedRequests {
		f.Add([]byte(tc.body))
	}
	store, err := OpenResultCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	svc, err := NewSweepServer(store, 1, 8)
	if err != nil {
		f.Fatal(err)
	}
	n := countSimulations(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		_, jobs, keys, err := svc.parseSweep(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(jobs) == 0 || len(jobs) > 8 || len(keys) != len(jobs) {
			t.Fatalf("accepted %d jobs with %d keys from a server limited to 8", len(jobs), len(keys))
		}
		for i, j := range jobs {
			cfg := configFor(j.Design, j.Options)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("job %d accepted with an invalid configuration: %v", i, err)
			}
			if cfg.CacheSize > cfg.OffPkg.SizeBytes {
				t.Fatalf("job %d accepted with a %d-byte cache over %d bytes of memory", i, cfg.CacheSize, cfg.OffPkg.SizeBytes)
			}
		}
		if n.Load() != 0 {
			t.Fatal("request validation simulated")
		}
	})
}

// TestRemoteSweepMatchesInProcess is the transport's core guarantee: a
// sweep submitted to the service returns Results byte-identical to the
// same jobs run in-process, progress events flow back, and a warm
// re-submission is served entirely from the server's result cache.
func TestRemoteSweepMatchesInProcess(t *testing.T) {
	n := countSimulations(t)
	o := remoteTestOpts()
	jobs := []Job{
		{Design: Tagless, Workload: "sphinx3", Options: o},
		{Design: SRAMTag, Workload: "sphinx3", Options: o},
	}
	local, err := Sweep(context.Background(), jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	localSims := n.Load()

	_, url := newTestSweepServer(t, 0, 0)
	var progress []SweepProgress
	ro := o
	ro.Workers = 2
	ro.Progress = func(p SweepProgress) { progress = append(progress, p) }
	remote, err := RemoteSweep(context.Background(), url, jobs, ro)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(remote), len(jobs))
	}
	for i := range jobs {
		if !bytes.Equal(metricsBytes(t, remote[i]), metricsBytes(t, local[i])) {
			t.Errorf("job %d: remote result differs from in-process run", i)
		}
	}
	if len(progress) == 0 {
		t.Error("no progress events reached the client callback")
	} else if last := progress[len(progress)-1]; last.Done != len(jobs) || last.Total != len(jobs) {
		t.Errorf("final progress = %d/%d, want %d/%d", last.Done, last.Total, len(jobs), len(jobs))
	}
	if got := n.Load() - localSims; got != int64(len(jobs)) {
		t.Errorf("cold remote sweep ran %d simulations, want %d", got, len(jobs))
	}

	// Warm re-submission: every cell replays from the server's store.
	before, err := RemoteStats(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	simsBefore := n.Load()
	again, err := RemoteSweep(context.Background(), url, jobs, ro)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !bytes.Equal(metricsBytes(t, again[i]), metricsBytes(t, local[i])) {
			t.Errorf("job %d: warm remote result differs from in-process run", i)
		}
	}
	if got := n.Load() - simsBefore; got != 0 {
		t.Errorf("warm re-submission ran %d simulations, want 0", got)
	}
	after, err := RemoteStats(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Errorf("warm re-submission missed the cache %d times, want 0", misses)
	}
	if hits := after.Hits - before.Hits; hits != uint64(len(jobs)) {
		t.Errorf("warm re-submission hit the cache %d times, want %d", hits, len(jobs))
	}
}

// TestSweepdGridExpansion checks the designs × workloads sugar against
// the explicit-jobs form: same grid, same fingerprints, workload-major.
func TestSweepdGridExpansion(t *testing.T) {
	svc, _ := newTestSweepServer(t, 1, 0)
	o := remoteTestOpts()
	canon, err := o.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	req := &sweepapi.Request{
		Designs:   []string{"NoL3", "cTLB"},
		Workloads: []string{"sphinx3", "mcf"},
		Options:   canon,
	}
	jobs, keys, err := svc.buildJobs(req)
	if err != nil {
		t.Fatal(err)
	}
	want := []Job{
		{Design: NoL3, Workload: "sphinx3", Options: o},
		{Design: Tagless, Workload: "sphinx3", Options: o},
		{Design: NoL3, Workload: "mcf", Options: o},
		{Design: Tagless, Workload: "mcf", Options: o},
	}
	if len(jobs) != len(want) {
		t.Fatalf("grid expanded to %d jobs, want %d", len(jobs), len(want))
	}
	for i := range want {
		if jobs[i].Design != want[i].Design || jobs[i].Workload != want[i].Workload {
			t.Errorf("jobs[%d] = %s/%v, want %s/%v",
				i, jobs[i].Workload, jobs[i].Design, want[i].Workload, want[i].Design)
		}
		wantFP, err := (Job{Design: want[i].Design, Workload: want[i].Workload, Options: o}).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if keys[i].key.String() != wantFP {
			t.Errorf("jobs[%d] fingerprint drifted across the wire conversion", i)
		}
	}

	// Policy names are case-insensitive on the wire, as on the CLI.
	lru, _, err := svc.buildJobs(&sweepapi.Request{Jobs: []sweepapi.Job{{
		Design: "cTLB", Workload: "sphinx3",
		Options: json.RawMessage(`{"shift": 6, "warmup": 50000, "measure": 50000, "seed": 1, "policy": "lru"}`),
	}}})
	if err != nil {
		t.Fatalf(`"policy": "lru" rejected: %v`, err)
	}
	if got := lru[0].Options.Policy; got != LRU {
		t.Errorf(`"policy": "lru" decoded to %v, want LRU`, got)
	}
}

// TestSweepdCrossRequestSingleFlight holds a simulation in-flight while a
// second request submits the identical cell: the two concurrent sweeps
// must share one execution (and any later duplicate is served by the
// store), so the machine simulates exactly once.
func TestSweepdCrossRequestSingleFlight(t *testing.T) {
	n := countSimulations(t)
	started, release := blockSimulations(t)
	_, url := newTestSweepServer(t, 0, 0)

	o := remoteTestOpts()
	jobs := []Job{{Design: Tagless, Workload: "sphinx3", Options: o}}
	type reply struct {
		res []*Result
		err error
	}
	ch1, ch2 := make(chan reply, 1), make(chan reply, 1)
	go func() {
		r, err := RemoteSweep(context.Background(), url, jobs, o)
		ch1 <- reply{r, err}
	}()
	<-started
	go func() {
		r, err := RemoteSweep(context.Background(), url, jobs, o)
		ch2 <- reply{r, err}
	}()
	// Wait until the second sweep is accepted (its only job then either
	// joins the in-flight call or, if it arrives late, hits the store —
	// both paths simulate zero additional machines).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := RemoteStats(context.Background(), url)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sweeps >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second sweep never accepted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(release)
	r1, r2 := <-ch1, <-ch2
	if r1.err != nil || r2.err != nil {
		t.Fatalf("sweep errors: %v, %v", r1.err, r2.err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("two concurrent identical sweeps ran %d simulations, want 1", got)
	}
	if !bytes.Equal(metricsBytes(t, r1.res[0]), metricsBytes(t, r2.res[0])) {
		t.Error("concurrent duplicate requests returned different results")
	}
}

// TestSweepdStreamsStoredPayloads pins the replay path: every result
// event carries the store's payload for its cell byte for byte. On a
// cold sweep those are the bytes the server encoded once for the store
// and the stream; on a warm one, the stored entries as they are. A
// duplicate cell streams the same bytes, and nothing simulates twice.
func TestSweepdStreamsStoredPayloads(t *testing.T) {
	n := countSimulations(t)
	svc, url := newTestSweepServer(t, 2, 0)
	o := remoteTestOpts()
	canon, err := o.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cells := []Job{
		{Design: Tagless, Workload: "sphinx3", Options: o},
		{Design: SRAMTag, Workload: "sphinx3", Options: o},
		{Design: Tagless, Workload: "sphinx3", Options: o},
	}
	req := &sweepapi.Request{Options: canon}
	for _, c := range cells {
		req.Jobs = append(req.Jobs, sweepapi.Job{Design: c.Design.String(), Workload: c.Workload})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for pass, warm := range []bool{false, true} {
		resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var results []sweepapi.Event
		dec := json.NewDecoder(resp.Body)
		for {
			var ev sweepapi.Event
			if err := dec.Decode(&ev); err != nil {
				break
			}
			if ev.Type == sweepapi.EventError {
				t.Fatalf("pass %d: %s", pass, ev.Error)
			}
			if ev.Type == sweepapi.EventResult {
				results = append(results, ev)
			}
		}
		resp.Body.Close()
		if len(results) != len(cells) {
			t.Fatalf("pass %d: %d result events, want %d", pass, len(results), len(cells))
		}
		for i, ev := range results {
			key, _, err := cells[i].fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			stored, ok := svc.store.Payload(key)
			if !ok {
				t.Fatalf("pass %d: job %d has no stored entry", pass, i)
			}
			if !bytes.Equal(ev.Result, stored) {
				t.Errorf("pass %d: job %d streamed %d bytes that differ from its %d stored bytes",
					pass, i, len(ev.Result), len(stored))
			}
			if wantCached := warm || i == 2; ev.Cached != wantCached {
				t.Errorf("pass %d: job %d cached = %t, want %t", pass, i, ev.Cached, wantCached)
			}
		}
	}
	if got := n.Load(); got != 2 {
		t.Errorf("%d simulations for 2 distinct cells over two passes, want 2", got)
	}
}

// TestSweepdCacheStatsWire pins the cache counters' wire form: the
// done event and GET /v1/stats carry resultcache.Stats, so each raw
// cache object has exactly the keys hits, misses, stored and evicted,
// and the values are the store's own counters.
func TestSweepdCacheStatsWire(t *testing.T) {
	svc, url := newTestSweepServer(t, 1, 0)
	canon, err := remoteTestOpts().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&sweepapi.Request{Options: canon,
		Jobs: []sweepapi.Job{{Design: "cTLB", Workload: "sphinx3"}}})
	if err != nil {
		t.Fatal(err)
	}
	// cacheObject decodes one raw JSON object's "cache" member and
	// checks its key set.
	cacheObject := func(what string, raw []byte) CacheStats {
		t.Helper()
		var outer map[string]json.RawMessage
		if err := json.Unmarshal(raw, &outer); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var fields map[string]uint64
		if err := json.Unmarshal(outer["cache"], &fields); err != nil {
			t.Fatalf("%s cache object %s: %v", what, outer["cache"], err)
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"evicted", "hits", "misses", "stored"}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("%s cache keys = %v, want %v", what, keys, want)
		}
		return CacheStats{Hits: fields["hits"], Misses: fields["misses"],
			Stored: fields["stored"], Evicted: fields["evicted"]}
	}

	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var done []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"type":"done"`) {
			done = append([]byte(nil), sc.Bytes()...)
		}
	}
	resp.Body.Close()
	if done == nil {
		t.Fatal("no done event")
	}
	if got, want := cacheObject("done event", done), (CacheStats{Misses: 1, Stored: 1}); got != want {
		t.Errorf("done cache = %+v, want %+v", got, want)
	}

	resp, err = http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cacheObject("/v1/stats", raw), svc.store.Stats(); got != want {
		t.Errorf("/v1/stats cache = %+v, want the store's %+v", got, want)
	}
}

// TestSweepdGracefulDrain pins the SIGTERM path: once draining, new
// sweeps get 503 while the in-flight sweep runs to completion, and Drain
// returns only after it has.
func TestSweepdGracefulDrain(t *testing.T) {
	started, release := blockSimulations(t)
	svc, url := newTestSweepServer(t, 0, 0)

	o := remoteTestOpts()
	jobs := []Job{{Design: Tagless, Workload: "sphinx3", Options: o}}
	type reply struct {
		res []*Result
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		r, err := RemoteSweep(context.Background(), url, jobs, o)
		ch <- reply{r, err}
	}()
	<-started

	drained := make(chan struct{})
	go func() {
		svc.Drain()
		close(drained)
	}()
	// Drain flips the flag before blocking on the in-flight sweep; wait
	// for the health endpoint to report it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := RemoteSweep(context.Background(), url, jobs, o); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("sweep during drain: err = %v, want a draining refusal", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a sweep was still in flight")
	default:
	}

	close(release)
	r := <-ch
	if r.err != nil {
		t.Fatalf("in-flight sweep failed during drain: %v", r.err)
	}
	if len(r.res) != 1 || r.res[0] == nil {
		t.Fatal("in-flight sweep did not deliver its result")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the in-flight sweep finished")
	}
}

// TestSweepdHardCancel pins the second-signal path: Cancel skips queued
// jobs (the in-flight one finishes) and the client sees a context
// cancellation instead of fabricated results.
func TestSweepdHardCancel(t *testing.T) {
	n := countSimulations(t)
	started, release := blockSimulations(t)
	svc, url := newTestSweepServer(t, 1, 0)

	o := remoteTestOpts()
	o.Workers = 1
	jobs := []Job{
		{Design: Tagless, Workload: "sphinx3", Options: o},
		{Design: SRAMTag, Workload: "sphinx3", Options: o},
	}
	ctxCh := make(chan context.Context, 1)
	prevHook := sweepCtxHook
	sweepCtxHook = func(ctx context.Context) { ctxCh <- ctx }
	t.Cleanup(func() { sweepCtxHook = prevHook })

	errCh := make(chan error, 1)
	go func() {
		_, err := RemoteSweep(context.Background(), url, jobs, o)
		errCh <- err
	}()
	<-started
	reqCtx := <-ctxCh
	svc.Cancel()
	// Cancel reaches the sweep through a goroutine; wait for it to land
	// before letting the in-flight simulation finish, so the queued job
	// is deterministically behind the cancellation.
	<-reqCtx.Done()
	close(release)
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled sweep: err = %v, want a context cancellation", err)
	}
	if got := n.Load(); got != 1 {
		t.Errorf("hard cancel ran %d simulations, want 1 (queued job skipped)", got)
	}
}

// TestRemoteSweepRejectsLocalOnlyOptions: checkpoint and tracing options
// name client-local state and must be refused before anything is sent.
func TestRemoteSweepRejectsLocalOnlyOptions(t *testing.T) {
	o := remoteTestOpts()
	o.Checkpoints = NewCheckpointStore()
	_, err := RemoteSweep(context.Background(), "http://localhost:0",
		[]Job{{Design: Tagless, Workload: "sphinx3", Options: o}}, o)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want a checkpoint refusal", err)
	}
	o = remoteTestOpts()
	o.TraceEvents = &bytes.Buffer{}
	_, err = RemoteSweep(context.Background(), "http://localhost:0",
		[]Job{{Design: Tagless, Workload: "sphinx3", Options: o}}, o)
	if err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Fatalf("err = %v, want a tracing refusal", err)
	}
}

// TestWireOptionsFingerprintRoundTrip sends a fully non-default Options
// through the real transport — Canonical() inside a JSON request, decoded
// by the server's strict options decoder — and requires the job's cache
// fingerprint to survive. The guard loop is driven by the json tags: a
// new named field this test forgot to set fails here.
func TestWireOptionsFingerprintRoundTrip(t *testing.T) {
	o := Options{
		Shift:               5,
		Warmup:              123_000,
		Measure:             456_000,
		Seed:                9,
		CacheMB:             8,
		Policy:              CLOCK,
		NCAccessThreshold:   32,
		SynchronousEviction: true,
		CachedGIPT:          true,
		SharedAliasTable:    true,
		HotFilterThreshold:  4,
		Superpages:          true,
		Refresh:             true,
		L2TLBEntries:        256,
		Alpha:               2,
		WalkModel:           "nested",
		PWCHitCycles:        3,
		TLBTopology:         "shared",
		CtxSwitchRefs:       10_000,
		CtxSwitchFlush:      true,
		MSHRs:               4,
		EpochRefs:           1_000,
		EpochCapacity:       16,
		Sample:              &SampleSpec{WindowRefs: 1_000, PeriodRefs: 10_000, WarmRefs: 500},
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	typ, ov := reflect.TypeOf(o), reflect.ValueOf(o)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.IsExported() && f.Tag.Get("json") != "-" && ov.Field(i).IsZero() {
			t.Errorf("wire field %s is still zero: set it above so the round trip exercises it", f.Name)
		}
	}

	canon, err := o.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sweepapi.Request{Jobs: []sweepapi.Job{{Design: "cTLB", Workload: "sphinx3", Options: canon}}})
	if err != nil {
		t.Fatal(err)
	}
	var req sweepapi.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	back, err := decodeOptions(req.Jobs[0].Options, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := back.Canonical(); err != nil || !bytes.Equal(got, canon) {
		t.Fatalf("canonical options drifted across the wire (%v):\n got %s\nwant %s", err, got, canon)
	}
	// A tagless job cannot combine superpages with the hot filter, so the
	// fingerprint leg drops superpages on both sides.
	o.Superpages, back.Superpages = false, false
	fp0, err := (Job{Design: Tagless, Workload: "sphinx3", Options: o}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := (Job{Design: Tagless, Workload: "sphinx3", Options: back}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp0 != fp1 {
		t.Fatalf("fingerprint drifted across the wire: %s != %s", fp0, fp1)
	}
}
