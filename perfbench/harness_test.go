package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSchema checks BENCHMARK.json against the harness: the workloads it
// implements, the end-to-end metrics every untraced run prints, and the
// per-layer metrics every traced run prints, with their units.
func TestSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(keys) != len(want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !namePattern.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}

	e2e := endToEnd(&measured{wall: time.Second, calls: []time.Duration{time.Millisecond}})
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics declared, %d printed", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		name(m.Name)
		got, ok := e2e[m.Name]
		switch {
		case !ok:
			t.Errorf("end-to-end metric %q is not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: unit %q printed, %q declared", m.Name, got.Unit, m.Unit)
		}
		if !unitPattern.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bad unit, direction or bound: %+v", m.Name, m)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}

	layers := perLayerMetrics()
	if len(layers) != 79 || len(b.PerLayer) != len(layers) {
		t.Fatalf("per-layer metrics: %d declared, %d implemented, 79 specified", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		l := layers[i]
		better := "higher"
		if l.lower {
			better = "lower"
		}
		if m.Name != l.name || m.Unit != l.unit || m.Better != better || !unitPattern.MatchString(m.Unit) {
			t.Errorf("per-layer %d: declared %+v, implemented %+v", i, m, l)
		}
	}
}

// tinyFigures runs the self-test slice of figures-cold once.
func tinyFigures(t *testing.T, pins *pinSet, pinning bool, tr *tracer) *measured {
	t.Helper()
	cfg := &runConfig{seed: defaultSeed, seconds: time.Nanosecond, scratch: t.TempDir(),
		pins: pins, pinning: pinning, tiny: true, tr: tr}
	m, err := runFiguresCold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWrongPinFailsOp records pins for the tiny grid, then checks that
// the same pins pass and that one corrupted Result digest fails exactly
// one op.
func TestWrongPinFailsOp(t *testing.T) {
	rec := tinyFigures(t, nil, true, nil)
	if rec.failed != 0 || rec.attempted == 0 {
		t.Fatalf("recording run: attempted %d, failed %d: %v", rec.attempted, rec.failed, rec.notes)
	}
	pins := &pinSet{Figures: rec.pins.Figures}
	if m := tinyFigures(t, pins, false, nil); m.failed != 0 {
		t.Fatalf("matching pins: %d ops failed: %v", m.failed, m.notes)
	}
	bad := &pinSet{Figures: append([]runnerPin(nil), pins.Figures...)}
	bad.Figures[0].Results = append([]string(nil), bad.Figures[0].Results...)
	bad.Figures[0].Results[0] = "0123456789abcdef01234567"
	m := tinyFigures(t, bad, false, nil)
	if m.failed != 1 || m.attempted != rec.attempted {
		t.Fatalf("one wrong digest: attempted %d (want %d), failed %d (want 1)", m.attempted, rec.attempted, m.failed)
	}
	out := endToEnd(m)
	for _, k := range []string{"jobs_per_s", "cpu_ms_per_job", "request_p50_ms", "request_tail_ms", "setup_s", "peak_rss_mb"} {
		if v := out[k].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", k, v)
		}
	}
}

// TestTraceWellFormed checks a traced run's spans: every span is closed,
// every parent exists inside the same op, and self times are >= 0.
func TestTraceWellFormed(t *testing.T) {
	tr := newTracer()
	tinyFigures(t, nil, false, tr)
	spans := tr.snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, s := range spans {
		if s.Parent != 0 {
			children++
		}
	}
	if children == 0 {
		t.Error("no child spans: cells were not recorded under their runner")
	}
	path := t.TempDir() + "/trace.json"
	if err := writeTraceFile(tr, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil || len(f.TraceEvents) != len(spans) {
		t.Fatalf("trace file: %d events, %d spans, err %v", len(f.TraceEvents), len(spans), err)
	}
}

// TestSelfTimes checks the self-time rule on overlapping children and
// the span checker on a parent in another op.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Op: 1, Start: 1 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Op: 1, Start: 4 * ms, End: 8 * ms}, // overlaps 2: parallel workers
		{ID: 4, Parent: 3, Op: 1, Start: 5 * ms, End: 9 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 3*ms || self[2] != 5*ms || self[3] != 1*ms || self[4] != 4*ms {
		t.Errorf("self times %v", self)
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	spans = append(spans, span{ID: 5, Parent: 1, Op: 2, Start: 0, End: ms})
	if checkSpans(spans) == nil {
		t.Error("a parent in another op passed the check")
	}
}

// TestTail checks the tail rule: the highest percentile with at least
// ten samples beyond it.
func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	p50, tail, pct, n := callStats(ds)
	if p50 != 50.5 || tail != 90 || pct != 90 || n != 100 {
		t.Errorf("p50 %v tail %v at p%v over %d", p50, tail, pct, n)
	}
}

// TestServiceTraceNests runs a short traced session against a sweep
// server and checks that the server's own spans nest under the ServeHTTP
// wrapper inside each request's op: job phases under their job, jobs
// under their sweep.
func TestServiceTraceNests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 28-cell grid")
	}
	cfg := &runConfig{seed: defaultSeed, scratch: t.TempDir(), tr: newTracer()}
	val := map[string]float64{}
	n, err := serviceSession(cfg, val)
	if err != nil {
		t.Fatal(err)
	}
	spans := cfg.tr.snapshot()
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	queued := 0
	for _, s := range spans {
		if s.Name != "sweepd queued" {
			continue
		}
		queued++
		job := byID[s.Parent]
		sweep := byID[job.Parent]
		wrap := byID[sweep.Parent]
		if !strings.HasPrefix(job.Cat, "sweepd:") || !strings.HasPrefix(sweep.Name, "sweepd sweep ") ||
			wrap.Name != "ServeHTTP /v1/sweep" || byID[wrap.Parent].Name != "RemoteSweep" {
			t.Fatalf("queued span nests under %q < %q < %q", job.Name, sweep.Name, wrap.Name)
		}
	}
	if queued != n*len(serviceJobs(defaultSeed, 0)) {
		t.Errorf("%d queued spans for %d requests", queued, n)
	}
	for _, k := range []string{"sweepd.validate_ms", "sweepd.queue_wait_ms", "sweepd.encode_ms", "sweepd.response_kb", "remote.client_ms"} {
		if !(val[k] > 0) {
			t.Errorf("%s = %v, want > 0", k, val[k])
		}
	}
}
