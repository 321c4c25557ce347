package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"taglessdram/internal/lat"
)

func findSample(t *testing.T, samples []Sample, name string, labels map[string]string) Sample {
	t.Helper()
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s
		}
	}
	t.Fatalf("no sample %s%v in %d samples", name, labels, len(samples))
	return Sample{}
}

// TestWritePromRoundTrip pins the exposition writer against the parser:
// every registered family renders, labels (including escapes) survive,
// and counter/gauge values come back exactly.
func TestWritePromRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "Operations.")
	c.Add(42)
	g := reg.Gauge("test_inflight", "In-flight.")
	g.Add(7)
	g.Dec()
	reg.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	reg.CounterFunc("test_fn_total", "From closure.", func() uint64 { return 9 })
	vec := reg.CounterVec("test_http_total", "Requests.", "route", "class")
	vec.With("/v1/sweep", "2xx").Add(3)
	vec.With(`we"ird\nam
e`, "5xx").Inc()
	hv := reg.HistogramVec("test_phase_seconds", "Phases.", "phase", "simulate")
	hv.Observe("simulate", 3*time.Millisecond)
	hv.Observe("simulate", 5*time.Millisecond)
	hv.Observe("simulate", 100*time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP test_ops_total Operations.",
		"# TYPE test_ops_total counter",
		"# TYPE test_phase_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, text)
	}
	if s := findSample(t, samples, "test_ops_total", nil); s.Value != 42 {
		t.Errorf("test_ops_total = %v, want 42", s.Value)
	}
	if s := findSample(t, samples, "test_inflight", nil); s.Value != 6 {
		t.Errorf("test_inflight = %v, want 6", s.Value)
	}
	if s := findSample(t, samples, "test_fn_total", nil); s.Value != 9 {
		t.Errorf("test_fn_total = %v, want 9", s.Value)
	}
	if s := findSample(t, samples, "test_http_total", map[string]string{"route": "/v1/sweep"}); s.Value != 3 || s.Labels["class"] != "2xx" {
		t.Errorf("vec sample = %+v", s)
	}
	weird := findSample(t, samples, "test_http_total", map[string]string{"class": "5xx"})
	if weird.Labels["route"] != "we\"ird\\nam\ne" {
		t.Errorf("escaped label round-trip = %q", weird.Labels["route"])
	}
	if s := findSample(t, samples, "test_phase_seconds_count", map[string]string{"phase": "simulate"}); s.Value != 3 {
		t.Errorf("hist count = %v, want 3", s.Value)
	}
	inf := findSample(t, samples, "test_phase_seconds_bucket", map[string]string{"le": "+Inf"})
	if inf.Value != 3 {
		t.Errorf("+Inf bucket = %v, want 3", inf.Value)
	}
	// Cumulative buckets must be non-decreasing in le order.
	var prev float64 = -1
	var prevLe float64 = -1
	for _, s := range samples {
		if s.Name != "test_phase_seconds_bucket" || s.Labels["le"] == "+Inf" {
			continue
		}
		le, err := parseLe(s.Labels["le"])
		if err != nil {
			t.Fatalf("bad le %q: %v", s.Labels["le"], err)
		}
		if le <= prevLe || s.Value < prev {
			t.Errorf("buckets not cumulative: le=%v cum=%v after le=%v cum=%v", le, s.Value, prevLe, prev)
		}
		prevLe, prev = le, s.Value
	}
}

func parseLe(s string) (float64, error) {
	var v float64
	err := json.Unmarshal([]byte(s), &v)
	return v, err
}

// scrape renders reg and parses the exposition back, as a scraper does.
func scrape(t *testing.T, reg *Registry) []Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestHistQuantile pins the log2 bucket geometry shared with
// internal/lat: 3ms observations scrape back into the bucket whose
// bounds bracket 3000µs, and an untouched child scrapes as empty.
func TestHistQuantile(t *testing.T) {
	reg := NewRegistry()
	hv := reg.HistogramVec("test_phase_seconds", "Phases.", "phase", "busy", "idle")
	for i := 0; i < 100; i++ {
		hv.Observe("busy", 3*time.Millisecond)
	}
	samples := scrape(t, reg)
	counts, ok := HistCounts(samples, "test_phase_seconds", Label{"phase", "busy"})
	if !ok {
		t.Fatal("busy child did not rebuild")
	}
	if p50 := lat.QuantileOf(&counts, 50); p50 < 2048 || p50 > 4096 {
		t.Errorf("p50 = %vµs, want within the [2048, 4096)µs log2 bucket", p50)
	}
	idle, ok := HistCounts(samples, "test_phase_seconds", Label{"phase", "idle"})
	if !ok || idle != ([lat.NumBuckets]uint64{}) {
		t.Errorf("idle child = %v (ok %t), want empty", idle, ok)
	}
	if p50 := lat.QuantileOf(&idle, 50); p50 != 0 {
		t.Errorf("empty p50 = %v, want 0", p50)
	}
}

// TestParsedQuantile checks the client-side quantile over parsed
// cumulative buckets (what sweeptop computes from a scrape), and that
// HistCounts refuses series HistogramVec never renders.
func TestParsedQuantile(t *testing.T) {
	parse := func(text string) []Sample {
		t.Helper()
		samples, err := ParseProm(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	l := Label{"phase", "x"}
	counts, ok := HistCounts(parse(`h_bucket{phase="x",le="0.001023"} 0
h_bucket{phase="x",le="0.002047"} 50
h_bucket{phase="x",le="0.004095"} 100
h_bucket{phase="x",le="+Inf"} 100
h_bucket{phase="y",le="+Inf"} 7
`), "h", l)
	if !ok || counts[11] != 50 || counts[12] != 50 {
		t.Fatalf("counts = %v (ok %t), want 50 in buckets 11 and 12", counts, ok)
	}
	if p50 := lat.QuantileOf(&counts, 50); p50 < 1024 || p50 > 2047 {
		t.Errorf("p50 = %vµs, want in [1024, 2047]", p50)
	}
	if p99 := lat.QuantileOf(&counts, 99); p99 < 2048 || p99 > 4095 {
		t.Errorf("p99 = %vµs, want in [2048, 4095]", p99)
	}
	for name, text := range map[string]string{
		"no series":        `h_bucket{phase="y",le="+Inf"} 7`,
		"not a bound":      "h_bucket{phase=\"x\",le=\"0.002\"} 5\nh_bucket{phase=\"x\",le=\"+Inf\"} 5",
		"decreasing":       "h_bucket{phase=\"x\",le=\"1e-06\"} 5\nh_bucket{phase=\"x\",le=\"3e-06\"} 4\nh_bucket{phase=\"x\",le=\"+Inf\"} 4",
		"above last bound": "h_bucket{phase=\"x\",le=\"1e-06\"} 5\nh_bucket{phase=\"x\",le=\"+Inf\"} 6",
	} {
		if counts, ok := HistCounts(parse(text), "h", l); ok {
			t.Errorf("%s: rebuilt %v", name, counts)
		}
	}
}

// TestScrapedEqualsServed is the exposition's contract: the buckets a
// scrape rebuilds equal, bucket for bucket, the lat.Hist of the same
// durations in whole microseconds (sub-microsecond and negative ones
// count as zero), and _count and _sum agree with it.
func TestScrapedEqualsServed(t *testing.T) {
	observed := []struct {
		d  time.Duration
		us uint64
	}{
		{-time.Second, 0}, {-1, 0}, {0, 0}, {1, 0}, {999 * time.Nanosecond, 0},
		{time.Microsecond, 1}, {1999 * time.Nanosecond, 1}, {2 * time.Microsecond, 2},
		{3 * time.Microsecond, 3}, {4 * time.Microsecond, 4},
		{1023 * time.Microsecond, 1023}, {1024 * time.Microsecond, 1024},
		{3 * time.Millisecond, 3000}, {5 * time.Millisecond, 5000},
		{100 * time.Millisecond, 100000}, {2 * time.Second, 2000000},
		{time.Hour, 3600000000},
	}
	reg := NewRegistry()
	hv := reg.HistogramVec("test_phase_seconds", "Phases.", "phase", "served", "other")
	var want lat.Hist
	for _, o := range observed {
		hv.Observe("served", o.d)
		want.Observe(o.us)
	}
	hv.Observe("other", time.Minute)
	samples := scrape(t, reg)
	l := Label{"phase", "served"}
	got, ok := HistCounts(samples, "test_phase_seconds", l)
	if !ok {
		t.Fatal("served child did not rebuild")
	}
	if got != want.Counts() {
		t.Errorf("scraped buckets\n%v\nwant\n%v", got, want.Counts())
	}
	labels := map[string]string{"phase": "served"}
	if s := findSample(t, samples, "test_phase_seconds_count", labels); s.Value != float64(want.Count()) {
		t.Errorf("_count = %v, want %d", s.Value, want.Count())
	}
	if s := findSample(t, samples, "test_phase_seconds_sum", labels); s.Value != float64(want.Sum())/1e6 {
		t.Errorf("_sum = %v, want %v", s.Value, float64(want.Sum())/1e6)
	}
}

// TestScrapeConsistentUnderObserve scrapes while observers run: every
// scrape is a snapshot, so _count equals the +Inf bucket, the finite
// buckets account for every sample, and the counts only grow.
func TestScrapeConsistentUnderObserve(t *testing.T) {
	const observers, perObserver = 4, 5000
	phases := []string{"a", "b"}
	reg := NewRegistry()
	hv := reg.HistogramVec("test_phase_seconds", "Phases.", "phase", phases...)
	var wg sync.WaitGroup
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perObserver; i++ {
				hv.Observe(phases[(w+i)%2], time.Duration(i*(w+1))*time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func() (total uint64) {
		samples := scrape(t, reg)
		for _, p := range phases {
			labels := map[string]string{"phase": p}
			count := findSample(t, samples, "test_phase_seconds_count", labels).Value
			inf := findSample(t, samples, "test_phase_seconds_bucket", map[string]string{"phase": p, "le": "+Inf"}).Value
			if count != inf {
				t.Fatalf("phase %s: _count %v != +Inf bucket %v", p, count, inf)
			}
			counts, ok := HistCounts(samples, "test_phase_seconds", Label{"phase", p})
			if !ok {
				t.Fatalf("phase %s: scrape does not rebuild", p)
			}
			var sum uint64
			for _, c := range counts {
				sum += c
			}
			if float64(sum) != count {
				t.Fatalf("phase %s: buckets hold %d samples, _count %v", p, sum, count)
			}
			total += sum
		}
		return total
	}
	var last uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		total := check()
		if total < last {
			t.Fatalf("scraped total fell from %d to %d", last, total)
		}
		last = total
	}
	if last != observers*perObserver {
		t.Fatalf("final scrape holds %d samples, want %d", last, observers*perObserver)
	}
}

// TestTraceWriteChrome pins the span export: complete events with
// microsecond ts/dur, lane-major order with enclosing spans first.
func TestTraceWriteChrome(t *testing.T) {
	tr := NewTrace("s42", time.Now(), 2, 2, "peer:1")
	tr.Add("simulate", CatPhase, 1, 10*time.Millisecond, 30*time.Millisecond)
	tr.Add("job0", CatSimulated, 1, 0, 40*time.Millisecond)
	tr.Add("sweep s42", CatSweep, 0, 0, 50*time.Millisecond)
	tr.JobDone(false)
	tr.JobDone(true)
	tr.Finish(StateOK)
	tr.Finish(StateError) // ignored: already finished

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			TS   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	// Sorted: tid 0 first, then tid 1 with the umbrella job span before
	// its nested phase.
	if doc.TraceEvents[0].Name != "sweep s42" || doc.TraceEvents[1].Name != "job0" || doc.TraceEvents[2].Name != "simulate" {
		t.Errorf("order = %s, %s, %s", doc.TraceEvents[0].Name, doc.TraceEvents[1].Name, doc.TraceEvents[2].Name)
	}
	sim := doc.TraceEvents[2]
	if sim.Ph != "X" || sim.TS != 10000 || sim.Dur != 20000 || sim.TID != 1 {
		t.Errorf("simulate span = %+v, want ph=X ts=10000 dur=20000 tid=1", sim)
	}

	sum := tr.Summary()
	if sum.State != StateOK || sum.Done != 2 || sum.Cached != 1 || sum.Simulated != 1 || sum.Spans != 3 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestTraceStoreEviction pins the bounded ring: oldest out first,
// Latest and Summaries track insertion order.
func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(2)
	t0 := time.Now()
	s.Add(NewTrace("a", t0, 1, 1, ""))
	s.Add(NewTrace("b", t0, 1, 1, ""))
	s.Add(NewTrace("c", t0, 1, 1, ""))
	if _, ok := s.Get("a"); ok {
		t.Error("a should have been evicted")
	}
	if _, ok := s.Get("b"); !ok {
		t.Error("b should be retained")
	}
	latest, ok := s.Latest()
	if !ok || latest.ID() != "c" {
		t.Errorf("latest = %v", latest)
	}
	sums := s.Summaries()
	if len(sums) != 2 || sums[0].ID != "c" || sums[1].ID != "b" {
		t.Errorf("summaries = %+v", sums)
	}
}

// TestLoggerLines pins the structured log format: one JSON object per
// line, ts and event first, fields in argument order, and values that
// cannot marshal degrade to strings instead of dropping the line.
func TestLoggerLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	fixed := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	l.SetNow(func() time.Time { return fixed })
	l.Event("sweep",
		F("sweep_id", "s000001"),
		F("jobs", 4),
		F("ratio", 0.5),
		F("bad", func() {}), // unmarshalable
	)
	line := buf.String()
	want := `{"ts":"2026-08-09T12:00:00Z","event":"sweep","sweep_id":"s000001","jobs":4,"ratio":0.5,`
	if !strings.HasPrefix(line, want) {
		t.Errorf("line = %q, want prefix %q", line, want)
	}
	if !strings.HasSuffix(line, "}\n") {
		t.Errorf("line %q should end with }\\n", line)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("log line is not valid JSON: %v\n%s", err, line)
	}
	if obj["event"] != "sweep" || obj["jobs"] != 4.0 {
		t.Errorf("decoded = %v", obj)
	}
	buf.Reset()
	l.SetOutput(nil)
	l.Event("dropped")
	if buf.Len() != 0 {
		t.Error("SetOutput(nil) should discard")
	}
}
