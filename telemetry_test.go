package taglessdram

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"taglessdram/internal/sweepapi"
	"taglessdram/internal/telemetry"
)

// scrapeMetrics fetches and parses the server's /metrics exposition.
func scrapeMetrics(t *testing.T, url string) []telemetry.Sample {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	samples, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return samples
}

// metricValue returns the single unlabeled sample with the given name.
func metricValue(t *testing.T, samples []telemetry.Sample, name string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

// TestSweepdMetricsAgreeWithStats is the exposition's core guarantee:
// the /metrics cache counters are the same numbers /v1/stats (and the
// RemoteStats client) reports, a warm re-submission shows zero misses
// on both surfaces, and counters are monotonic across scrapes.
func TestSweepdMetricsAgreeWithStats(t *testing.T) {
	_, url := newTestSweepServer(t, 0, 0)
	o := remoteTestOpts()
	o.Workers = 2
	jobs := []Job{
		{Design: Tagless, Workload: "sphinx3", Options: o},
		{Design: SRAMTag, Workload: "sphinx3", Options: o},
	}
	if _, err := RemoteSweep(context.Background(), url, jobs, o); err != nil {
		t.Fatal(err)
	}
	cold := scrapeMetrics(t, url)
	if _, err := RemoteSweep(context.Background(), url, jobs, o); err != nil {
		t.Fatal(err)
	}
	warm := scrapeMetrics(t, url)

	stats, err := RemoteStats(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	agree := []struct {
		metric string
		stat   uint64
	}{
		{"sweepd_resultcache_hits_total", stats.Hits},
		{"sweepd_resultcache_misses_total", stats.Misses},
		{"sweepd_resultcache_stored_total", stats.Stored},
		{"sweepd_resultcache_evicted_total", stats.Evicted},
		{"sweepd_sweeps_total", stats.Sweeps},
		{"sweepd_jobs_total", stats.Jobs},
	}
	for _, a := range agree {
		if got := metricValue(t, warm, a.metric); got != float64(a.stat) {
			t.Errorf("%s = %v, but /v1/stats says %d", a.metric, got, a.stat)
		}
	}
	if d := metricValue(t, warm, "sweepd_resultcache_misses_total") -
		metricValue(t, cold, "sweepd_resultcache_misses_total"); d != 0 {
		t.Errorf("warm re-submission added %v misses on /metrics, want 0", d)
	}
	if d := metricValue(t, warm, "sweepd_resultcache_hits_total") -
		metricValue(t, cold, "sweepd_resultcache_hits_total"); d != float64(len(jobs)) {
		t.Errorf("warm re-submission added %v hits on /metrics, want %d", d, len(jobs))
	}
	for _, name := range []string{
		"sweepd_resultcache_hits_total", "sweepd_resultcache_misses_total",
		"sweepd_sweeps_total", "sweepd_jobs_total", "sweepd_http_requests_total",
	} {
		var before, after float64
		for _, s := range cold {
			if s.Name == name {
				before += s.Value
			}
		}
		for _, s := range warm {
			if s.Name == name {
				after += s.Value
			}
		}
		if after < before {
			t.Errorf("%s went backwards across scrapes: %v -> %v", name, before, after)
		}
	}
	if got := metricValue(t, warm, "sweepd_model_version"); got != float64(ModelVersion()) {
		t.Errorf("sweepd_model_version = %v, want %d", got, ModelVersion())
	}
	if got := metricValue(t, warm, "sweepd_sweeps_inflight"); got != 0 {
		t.Errorf("sweepd_sweeps_inflight = %v after sweeps finished, want 0", got)
	}
	if got := metricValue(t, warm, "sweepd_jobs_inflight"); got != 0 {
		t.Errorf("sweepd_jobs_inflight = %v after sweeps finished, want 0", got)
	}
	// The simulate and encode phase histograms saw exactly the cold
	// jobs (a replay streams stored bytes without encoding); cache
	// lookups saw every fingerprintable job.
	var simCount, encodeCount, lookupCount float64
	for _, s := range warm {
		if s.Name != "sweepd_phase_duration_seconds_count" {
			continue
		}
		switch s.Label("phase") {
		case "simulate":
			simCount = s.Value
		case "encode":
			encodeCount = s.Value
		case "cache-lookup":
			lookupCount = s.Value
		}
	}
	if simCount != float64(len(jobs)) {
		t.Errorf("simulate phase count = %v, want %d (cold jobs only)", simCount, len(jobs))
	}
	if encodeCount != float64(len(jobs)) {
		t.Errorf("encode phase count = %v, want %d (cold jobs only)", encodeCount, len(jobs))
	}
	if lookupCount != float64(2*len(jobs)) {
		t.Errorf("cache-lookup phase count = %v, want %d", lookupCount, 2*len(jobs))
	}

	// Extended stats service info.
	if stats.ModelVersion != ModelVersion() {
		t.Errorf("stats.ModelVersion = %d, want %d", stats.ModelVersion, ModelVersion())
	}
	if stats.Start.IsZero() || stats.Start.After(time.Now()) {
		t.Errorf("stats.Start = %v, want a past start time", stats.Start)
	}
	if stats.Uptime <= 0 {
		t.Errorf("stats.Uptime = %v, want > 0", stats.Uptime)
	}
	if stats.InFlightSweeps != 0 || stats.InFlightJobs != 0 {
		t.Errorf("in-flight = %d/%d after sweeps finished, want 0/0",
			stats.InFlightSweeps, stats.InFlightJobs)
	}
}

// chromeSpan mirrors the Chrome trace_event fields the span export uses.
type chromeSpan struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   uint64 `json:"ts"`
	Dur  uint64 `json:"dur"`
	TID  int    `json:"tid"`
}

func fetchTrace(t *testing.T, url, sweepID string) []chromeSpan {
	t.Helper()
	raw, err := RemoteTrace(context.Background(), url, sweepID)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace for %q is not valid JSON: %v", sweepID, err)
	}
	return doc.TraceEvents
}

// TestSweepdTraceExport pins the per-sweep span timeline: the accepted
// event carries the server-assigned sweep ID, /v1/trace exports one
// umbrella span per job with its phases nested inside it on the same
// lane, a cold sweep's jobs are cat "simulated" and a warm replay's are
// cat "cached", and /v1/sweeps lists both sweeps as finished.
func TestSweepdTraceExport(t *testing.T) {
	_, url := newTestSweepServer(t, 0, 0)
	o := remoteTestOpts()
	o.Workers = 2
	var mu sync.Mutex
	var ids []string
	o.OnSweepAccepted = func(a SweepAccepted) {
		mu.Lock()
		ids = append(ids, a.SweepID)
		mu.Unlock()
	}
	jobs := []Job{
		{Design: Tagless, Workload: "sphinx3", Options: o},
		{Design: SRAMTag, Workload: "sphinx3", Options: o},
	}
	for i := 0; i < 2; i++ {
		if _, err := RemoteSweep(context.Background(), url, jobs, o); err != nil {
			t.Fatal(err)
		}
	}
	if len(ids) != 2 || ids[0] == "" || ids[0] == ids[1] {
		t.Fatalf("accepted sweep IDs = %q, want two distinct non-empty IDs", ids)
	}

	wantCat := []string{telemetry.CatSimulated, telemetry.CatCached}
	for run, id := range ids {
		spans := fetchTrace(t, url, id)
		umbrellas := map[int]chromeSpan{}
		var sweepSpan bool
		for _, s := range spans {
			if s.Ph != "X" {
				t.Errorf("sweep %s: event %q has ph %q, want X (complete)", id, s.Name, s.Ph)
			}
			switch s.Cat {
			case telemetry.CatCached, telemetry.CatSimulated:
				if s.Cat != wantCat[run] {
					t.Errorf("sweep %s: job span %q is cat %q, want %q", id, s.Name, s.Cat, wantCat[run])
				}
				if _, dup := umbrellas[s.TID]; dup {
					t.Errorf("sweep %s: two umbrella spans on lane %d", id, s.TID)
				}
				umbrellas[s.TID] = s
			case telemetry.CatSweep:
				if strings.HasPrefix(s.Name, "sweep ") {
					sweepSpan = true
					if s.TID != 0 {
						t.Errorf("sweep %s: sweep-level span on lane %d, want 0", id, s.TID)
					}
				}
			}
		}
		if len(umbrellas) != len(jobs) {
			t.Errorf("sweep %s: %d umbrella job spans, want %d", id, len(umbrellas), len(jobs))
		}
		if !sweepSpan {
			t.Errorf("sweep %s: no sweep-level span", id)
		}
		for _, s := range spans {
			if s.Cat != telemetry.CatPhase || s.TID == 0 {
				continue
			}
			u, ok := umbrellas[s.TID]
			if !ok {
				t.Errorf("sweep %s: phase %q on lane %d has no umbrella span", id, s.Name, s.TID)
				continue
			}
			if s.TS < u.TS || s.TS+s.Dur > u.TS+u.Dur {
				t.Errorf("sweep %s: phase %q [%d,%d] not nested in %q [%d,%d]",
					id, s.Name, s.TS, s.TS+s.Dur, u.Name, u.TS, u.TS+u.Dur)
			}
		}
		if run == 0 {
			for _, want := range []string{"queued", "cache-lookup", "simulate", "encode", "streamed"} {
				found := false
				for _, s := range spans {
					if s.Name == want {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("cold sweep %s: no %q phase span", id, want)
				}
			}
		}
	}

	// /v1/trace with no sweep parameter returns the latest trace;
	// unknown IDs are a 404.
	latest := fetchTrace(t, url, "")
	if len(latest) == 0 {
		t.Error("latest trace is empty")
	}
	if _, err := RemoteTrace(context.Background(), url, "nope"); err == nil {
		t.Error("RemoteTrace for an unknown sweep should fail")
	}

	// /v1/sweeps lists both sweeps, newest first, as finished.
	resp, err := http.Get(url + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr struct {
		Sweeps []struct {
			ID    string `json:"id"`
			State string `json:"state"`
			Jobs  int    `json:"jobs"`
		} `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Sweeps) != 2 {
		t.Fatalf("/v1/sweeps listed %d sweeps, want 2", len(sr.Sweeps))
	}
	if sr.Sweeps[0].ID != ids[1] || sr.Sweeps[1].ID != ids[0] {
		t.Errorf("/v1/sweeps order = %s, %s; want newest first %s, %s",
			sr.Sweeps[0].ID, sr.Sweeps[1].ID, ids[1], ids[0])
	}
	for _, sw := range sr.Sweeps {
		if sw.State != telemetry.StateOK || sw.Jobs != len(jobs) {
			t.Errorf("sweep %s: state=%s jobs=%d, want ok/%d", sw.ID, sw.State, sw.Jobs, len(jobs))
		}
	}
}

// syncBuffer is a mutex-guarded buffer for capturing the server's
// structured log stream from its handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSweepdStructuredLogs pins the JSON-lines log stream: every line
// parses, the sweep summary line carries the fields an operator greps
// for, and HTTP requests are logged with route and status.
func TestSweepdStructuredLogs(t *testing.T) {
	svc, url := newTestSweepServer(t, 0, 0)
	var logs syncBuffer
	svc.SetLogOutput(&logs)

	o := remoteTestOpts()
	jobs := []Job{{Design: Tagless, Workload: "sphinx3", Options: o}}
	if _, err := RemoteSweep(context.Background(), url, jobs, o); err != nil {
		t.Fatal(err)
	}
	if _, err := RemoteStats(context.Background(), url); err != nil {
		t.Fatal(err)
	}

	var sweepLine, httpLine map[string]any
	sc := bufio.NewScanner(strings.NewReader(logs.String()))
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("log line is not valid JSON: %v\n%s", err, sc.Text())
		}
		switch obj["event"] {
		case "sweep":
			sweepLine = obj
		case "http":
			if obj["route"] == "/v1/stats" {
				httpLine = obj
			}
		}
	}
	if sweepLine == nil {
		t.Fatalf("no sweep log line in:\n%s", logs.String())
	}
	for _, key := range []string{"ts", "sweep_id", "peer", "jobs", "workers",
		"cached", "simulated", "cache_hits", "cache_misses", "duration_ms", "outcome"} {
		if _, ok := sweepLine[key]; !ok {
			t.Errorf("sweep log line missing %q: %v", key, sweepLine)
		}
	}
	if sweepLine["outcome"] != telemetry.StateOK {
		t.Errorf("sweep outcome = %v, want ok", sweepLine["outcome"])
	}
	if sweepLine["jobs"] != 1.0 || sweepLine["simulated"] != 1.0 {
		t.Errorf("sweep line jobs/simulated = %v/%v, want 1/1",
			sweepLine["jobs"], sweepLine["simulated"])
	}
	if httpLine == nil {
		t.Fatalf("no http log line for /v1/stats in:\n%s", logs.String())
	}
	if httpLine["method"] != "GET" || httpLine["status"] != 200.0 {
		t.Errorf("http line = %v, want GET 200", httpLine)
	}
}

// TestSweepdDrainRetryAfter pins the drain contract addition: both the
// sweep refusal and the draining health check tell clients when to come
// back.
func TestSweepdDrainRetryAfter(t *testing.T) {
	started, release := blockSimulations(t)
	svc, url := newTestSweepServer(t, 0, 0)

	o := remoteTestOpts()
	jobs := []Job{{Design: Tagless, Workload: "sphinx3", Options: o}}
	done := make(chan error, 1)
	go func() {
		_, err := RemoteSweep(context.Background(), url, jobs, o)
		done <- err
	}()
	<-started
	drained := make(chan struct{})
	go func() {
		svc.Drain()
		close(drained)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Status       string `json:"status"`
			ModelVersion int    `json:"model_version"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if decErr != nil {
			t.Fatalf("healthz is not JSON: %v", decErr)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("draining healthz has no Retry-After header")
			}
			if health.Status != "draining" {
				t.Errorf("healthz status = %q, want draining", health.Status)
			}
			break
		}
		if health.Status != "ok" || health.ModelVersion != ModelVersion() {
			t.Errorf("healthz = %+v, want ok/model %d", health, ModelVersion())
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}

	body, err := json.Marshal(map[string]any{"workloads": []string{"sphinx3"}, "designs": []string{"Tagless"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining sweep refusal has no Retry-After header")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight sweep failed during drain: %v", err)
	}
	<-drained
}

// TestSweepdStreamEchoesSweepID pins the protocol addition: the result
// stream's done event repeats the sweep ID the accepted event assigned,
// and result events carry the cached flag on a warm replay.
func TestSweepdStreamEchoesSweepID(t *testing.T) {
	_, url := newTestSweepServer(t, 0, 0)
	o := remoteTestOpts()
	submit := func() (accepted, done string, cached bool) {
		t.Helper()
		canon, err := o.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(&sweepapi.Request{
			Jobs:    []sweepapi.Job{{Workload: "sphinx3", Design: "cTLB"}},
			Options: canon,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var ev struct {
				Type    string `json:"type"`
				SweepID string `json:"sweep_id"`
				Cached  bool   `json:"cached"`
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("stream line is not JSON: %v\n%s", err, sc.Text())
			}
			switch ev.Type {
			case "accepted":
				accepted = ev.SweepID
			case "result":
				cached = ev.Cached
			case "done":
				done = ev.SweepID
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return accepted, done, cached
	}
	acc1, done1, cached1 := submit()
	if acc1 == "" || acc1 != done1 {
		t.Errorf("cold stream: accepted id %q, done id %q; want matching non-empty", acc1, done1)
	}
	if cached1 {
		t.Error("cold result flagged cached")
	}
	acc2, done2, cached2 := submit()
	if acc2 == "" || acc2 != done2 || acc2 == acc1 {
		t.Errorf("warm stream: accepted id %q, done id %q; want fresh matching id", acc2, done2)
	}
	if !cached2 {
		t.Error("warm result not flagged cached")
	}
}
