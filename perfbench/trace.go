package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op (a grid cell's runner
// call, a sampled run, a sweep request) share Op; Parent is 0 for the
// op's root span.
type span struct {
	ID, Parent, Op int64
	Name, Cat      string
	Lane           int
	Start, End     time.Duration // offsets from the tracer's start
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span now and returns its ID.
func (t *tracer) begin(name string, op, parent int64, lane int) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Cat: "call", Lane: lane, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a completed span with explicit bounds.
func (t *tracer) add(name, cat string, op, parent int64, lane int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Cat: cat, Lane: lane,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// cells records a runner's grid cells under its span (see laneSpans).
func (t *tracer) cells(op, parent int64, name string, start time.Time, done []time.Time) {
	if t == nil {
		return
	}
	for k, c := range laneSpans(start, done) {
		t.add(fmt.Sprintf("%s cell %d", name, k), "cell", op, parent, c.lane, c.start, c.end)
	}
}

// laneSpan is one grid cell's reconstructed stay on a worker.
type laneSpan struct {
	lane       int
	start, end time.Time
}

// laneSpans reconstructs a sweep's cells from their completion times
// alone (Options.Progress reports no start times): in completion order,
// each cell runs on the worker lane that went free earliest, from that
// moment to its completion.
func laneSpans(start time.Time, done []time.Time) []laneSpan {
	free := make([]time.Time, workers)
	for i := range free {
		free[i] = start
	}
	out := make([]laneSpan, len(done))
	for k, c := range done {
		lane := 0
		for i := range free {
			if free[i].Before(free[lane]) {
				lane = i
			}
		}
		s := free[lane]
		if c.Before(s) {
			s = c
		}
		out[k] = laneSpan{lane + 1, s, c}
		free[lane] = c
	}
	return out
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps span ID to its duration minus the part of it that its
// children cover (children may overlap each other: parallel workers).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// checkSpans reports the first structural fault of a span set: an
// unclosed span, a parent that does not exist or belongs to another op,
// or a negative self time.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q is not closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q has missing parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Op != s.Op {
			return fmt.Errorf("span %d %q (op %d) has parent %d in op %d", s.ID, s.Name, s.Op, p.ID, p.Op)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d has negative self time %v", id, d)
		}
	}
	return nil
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; args carry the span tree.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// writeTraceFile writes the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto), one lane per worker or client.
func writeTraceFile(t *tracer, path string) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Phase: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "self_us": float64(self[s.ID].Nanoseconds()) / 1e3},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
