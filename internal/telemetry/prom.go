// Package telemetry is the sweep service's observability layer: the
// module's one metrics registry (atomic counters and gauges, and
// duration histograms that are internal/lat's log2 histograms) behind a
// hand-rolled Prometheus text exposition (no external dependencies),
// per-sweep span traces exported in the Chrome trace_event format
// shared with the kernel tracer (internal/sim), and a structured
// JSON-lines request logger. It lives strictly above the simulation hot
// path: recording a sample is an atomic add or one short mutex hold,
// and nothing here is called per memory reference.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taglessdram/internal/lat"
)

// Label is one name="value" pair on an exposition sample.
type Label struct {
	Name, Value string
}

// emitFunc receives one rendered sample: a metric (or histogram series)
// name, its labels, and the formatted value.
type emitFunc func(name string, labels []Label, value string)

// metricEntry is one registered exposition family: the # HELP / # TYPE
// header plus a collector that renders its current samples.
type metricEntry struct {
	name, help, typ string
	collect         func(emit emitFunc)
}

// Registry holds exposition families in registration order and renders
// them with WriteProm. Construction is not concurrency-safe (register
// everything at server startup); collection is.
type Registry struct {
	mu      sync.Mutex
	entries []*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(e *metricEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metricEntry{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) { emit(name, nil, formatUint(c.Value())) }})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the shape for counters owned elsewhere (the result cache's
// lifetime hit/miss/put counters, the service's sweep and job totals).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&metricEntry{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) { emit(name, nil, formatUint(fn())) }})
}

// Gauge is an integer metric that can go up and down (in-flight counts).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metricEntry{name: name, help: help, typ: "gauge",
		collect: func(emit emitFunc) { emit(name, nil, strconv.FormatInt(g.Value(), 10)) }})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (uptime, entry counts, version stamps).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metricEntry{name: name, help: help, typ: "gauge",
		collect: func(emit emitFunc) { emit(name, nil, formatFloat(fn())) }})
}

// CounterVec is a family of counters keyed by label values (for example
// HTTP requests by route and status class). Children are created on
// first use and exported in creation order.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	keys   []string
	m      map[string]*vecChild
}

type vecChild struct {
	values []string
	c      Counter
}

// With returns the child counter for the given label values, creating it
// on first use. The number of values must match the vec's label names.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: CounterVec got %d label values, want %d", len(values), len(v.labels)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.m[key]
	if !ok {
		ch = &vecChild{values: append([]string(nil), values...)}
		v.m[key] = ch
		v.keys = append(v.keys, key)
	}
	return &ch.c
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, m: make(map[string]*vecChild)}
	r.register(&metricEntry{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) {
			v.mu.Lock()
			keys := append([]string(nil), v.keys...)
			children := make([]*vecChild, len(keys))
			for i, k := range keys {
				children[i] = v.m[k]
			}
			v.mu.Unlock()
			for _, ch := range children {
				ls := make([]Label, len(v.labels))
				for i, ln := range v.labels {
					ls[i] = Label{ln, ch.values[i]}
				}
				emit(name, ls, formatUint(ch.c.Value()))
			}
		}})
	return v
}

// HistVec is a family of duration histograms keyed by one label (the
// sweep service's per-phase wall times). Each child is a lat.Hist of
// microseconds, so the exported buckets are internal/lat's log2
// geometry and HistCounts rebuilds them exactly from a scrape. The
// children are fixed at registration, in registration order, and share
// one mutex: an observation never interleaves with a scrape, so every
// scrape is a consistent snapshot whose last finite bucket, +Inf bucket
// and _count all hold the same number of samples.
type HistVec struct {
	values []string
	mu     sync.Mutex
	hists  []lat.Hist
}

// Observe records one duration in the child for the given label value,
// which must be one the family was registered with. Negative durations
// count as zero.
func (v *HistVec) Observe(value string, d time.Duration) {
	i := slices.Index(v.values, value)
	if i < 0 {
		panic(fmt.Sprintf("telemetry: HistVec has no child %q", value))
	}
	us := uint64(0)
	if d > 0 {
		us = uint64(d.Microseconds())
	}
	v.mu.Lock()
	v.hists[i].Observe(us)
	v.mu.Unlock()
}

// HistogramVec registers and returns a one-label histogram family with
// one child per value. Exported buckets are cumulative with le bounds
// in seconds; buckets above a child's highest occupied one collapse
// into +Inf.
func (r *Registry) HistogramVec(name, help, label string, values ...string) *HistVec {
	values = slices.Clone(values)
	v := &HistVec{values: values, hists: make([]lat.Hist, len(values))}
	r.register(&metricEntry{name: name, help: help, typ: "histogram",
		collect: func(emit emitFunc) {
			v.mu.Lock()
			hists := slices.Clone(v.hists)
			v.mu.Unlock()
			for i := range hists {
				emitHist(emit, name, Label{label, values[i]}, &hists[i])
			}
		}})
	return v
}

// emitHist renders one microsecond histogram as cumulative _bucket /
// _sum / _count series in seconds.
func emitHist(emit emitFunc, name string, l Label, h *lat.Hist) {
	counts := h.Counts()
	hi := -1
	for i, c := range counts {
		if c != 0 {
			hi = i
		}
	}
	var cum uint64
	for i := 0; i <= hi; i++ {
		cum += counts[i]
		_, boundUS := lat.BucketBounds(i)
		emit(name+"_bucket", []Label{l, {"le", formatFloat(float64(boundUS) / 1e6)}}, formatUint(cum))
	}
	emit(name+"_bucket", []Label{l, {"le", "+Inf"}}, formatUint(h.Count()))
	emit(name+"_sum", []Label{l}, formatFloat(float64(h.Sum())/1e6))
	emit(name+"_count", []Label{l}, formatUint(h.Count()))
}

// HistCounts rebuilds one HistogramVec child's bucket counts, in
// microseconds, from scraped samples: the name_bucket series carrying
// label l, whose le bounds map back onto internal/lat's buckets. The
// result feeds lat.QuantileOf, the same quantile rule the simulator's
// latency tails use. ok is false when the scrape has no such series or
// it is not one HistogramVec renders: an le that is not a bucket bound,
// decreasing cumulative counts, or samples above the last finite bound.
func HistCounts(samples []Sample, name string, l Label) (counts [lat.NumBuckets]uint64, ok bool) {
	var cum [lat.NumBuckets]uint64
	var seen [lat.NumBuckets]bool
	var total uint64
	found := false
	for _, s := range samples {
		if s.Name != name+"_bucket" || s.Label(l.Name) != l.Value {
			continue
		}
		found = true
		le := s.Label("le")
		if le == "+Inf" {
			total = uint64(s.Value)
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return counts, false
		}
		us := math.Round(bound * 1e6)
		if !(us >= 0 && us < 1<<63) {
			return counts, false
		}
		i := bits.Len64(uint64(us))
		if _, hi := lat.BucketBounds(i); hi != uint64(us) {
			return counts, false
		}
		cum[i], seen[i] = uint64(s.Value), true
	}
	var prev uint64
	for i := range cum {
		if !seen[i] {
			continue
		}
		if cum[i] < prev {
			return counts, false
		}
		counts[i] = cum[i] - prev
		prev = cum[i]
	}
	return counts, found && total == prev
}

// WriteProm renders every registered family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	entries := append([]*metricEntry(nil), r.entries...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.typ)
		e.collect(func(name string, labels []Label, value string) {
			bw.WriteString(name)
			writeLabels(bw, labels)
			bw.WriteByte(' ')
			bw.WriteString(value)
			bw.WriteByte('\n')
		})
	}
	return bw.Flush()
}

func writeLabels(bw *bufio.Writer, labels []Label) {
	if len(labels) == 0 {
		return
	}
	bw.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(l.Name)
		bw.WriteString(`="`)
		bw.WriteString(escapeLabel(l.Value))
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one parsed exposition line: metric name, labels, value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label value ("" when absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// ParseProm parses text-exposition output (the subset WriteProm emits:
// no timestamps, no exemplars) into samples. cmd/sweeptop scrapes
// /metrics through it; the CI smoke test carries its own independent
// parser so the writer is not checked against itself.
func ParseProm(r io.Reader) ([]Sample, error) {
	var samples []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

func parsePromLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip the escaped byte
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parsePromLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(body string, into map[string]string) error {
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return fmt.Errorf("label without '=' in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		rest := strings.TrimSpace(body[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("unquoted label value for %q", name)
		}
		var b strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value for %q", name)
		}
		into[name] = b.String()
		body = strings.TrimSpace(rest[i+1:])
		body = strings.TrimPrefix(body, ",")
		body = strings.TrimSpace(body)
	}
	return nil
}
