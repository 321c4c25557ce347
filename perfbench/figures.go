package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"taglessdram"
)

// runnerCall is one simulating figure/table runner invocation of the
// cmd/experiments grid, with the CLI's own arguments.
type runnerCall struct {
	name string
	// opts adjusts the sweep options (the virtualization slice).
	opts func(o taglessdram.Options) taglessdram.Options
	run  func(ctx context.Context, o taglessdram.Options) (any, error)
}

// figureRunners lists the grid in cmd/experiments order (Table 6 is
// analytic and simulates nothing), then the README's virtualization
// slice: Figure 8 and Table 2 under nested walks and a shared L2 TLB.
func figureRunners() []runnerCall {
	virt := func(o taglessdram.Options) taglessdram.Options {
		o.WalkModel, o.TLBTopology = "nested", "shared"
		return o
	}
	same := func(o taglessdram.Options) taglessdram.Options { return o }
	return []runnerCall{
		{"table1", same, func(ctx context.Context, o taglessdram.Options) (any, error) { return taglessdram.RunTable1(ctx, o) }},
		{"fig7", same, func(ctx context.Context, o taglessdram.Options) (any, error) { return taglessdram.RunFigure7(ctx, o) }},
		{"fig8", same, func(ctx context.Context, o taglessdram.Options) (any, error) { return taglessdram.RunFigure8(ctx, o) }},
		{"fig9", same, func(ctx context.Context, o taglessdram.Options) (any, error) { return taglessdram.RunFigure9(ctx, o) }},
		{"fig10", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunFigure10(ctx, o, nil)
		}},
		{"fig11", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunFigure11(ctx, o, nil)
		}},
		{"fig12", same, func(ctx context.Context, o taglessdram.Options) (any, error) { return taglessdram.RunFigure12(ctx, o) }},
		{"fig13", same, func(ctx context.Context, o taglessdram.Options) (any, error) { return taglessdram.RunFigure13(ctx, o) }},
		{"table2", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunTable2(ctx, o, "")
		}},
		{"shared", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunSharedPages(ctx, o, "MIX1", 0.15)
		}},
		{"hotfilter", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunHotFilter(ctx, o, "GemsFDTD", nil)
		}},
		{"superpages", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunSuperpages(ctx, o, nil)
		}},
		{"tlbreach", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunTLBReach(ctx, o, "mcf", nil)
		}},
		{"fairness", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunFairness(ctx, o, "MIX5")
		}},
		{"amat", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunAMATCheck(ctx, o, nil)
		}},
		{"latency", same, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunLatencyBreakdown(ctx, o, "sphinx3")
		}},
		{"fig8/nested-shared", virt, func(ctx context.Context, o taglessdram.Options) (any, error) { return taglessdram.RunFigure8(ctx, o) }},
		{"table2/nested-shared", virt, func(ctx context.Context, o taglessdram.Options) (any, error) {
			return taglessdram.RunTable2(ctx, o, "")
		}},
	}
}

// figuresOptions is `cmd/experiments -quick -j 2 -seed N`: the default
// 64x scale with 4x smaller instruction budgets and no result cache.
func figuresOptions(cfg *runConfig) taglessdram.Options {
	o := taglessdram.DefaultOptions()
	o.Seed = cfg.seed
	o.Workers = workers
	o.Warmup /= 4
	o.Measure /= 4
	if cfg.tiny {
		o.Warmup, o.Measure = 20_000, 20_000
	}
	return o
}

// tinyRunners is the self-test's slice of the grid.
var tinyRunners = map[string]bool{"table1": true, "fig13": true, "table2/nested-shared": true}

// gridRunners is the grid this run executes.
func gridRunners(cfg *runConfig) []runnerCall {
	all := figureRunners()
	if !cfg.tiny {
		return all
	}
	var out []runnerCall
	for _, rc := range all {
		if tinyRunners[rc.name] {
			out = append(out, rc)
		}
	}
	return out
}

// figuresPlan is the set-up of figures-cold: every runner's options,
// validated, and the fingerprint of every design-grid cell (what a
// result-cache user pays per cell before it runs). It is small; the
// workload has almost no set-up.
func figuresPlan(cfg *runConfig) ([]taglessdram.Options, error) {
	base := figuresOptions(cfg)
	var opts []taglessdram.Options
	for _, rc := range gridRunners(cfg) {
		o := rc.opts(base)
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", rc.name, err)
		}
		opts = append(opts, o)
	}
	var wls []string
	wls = append(wls, taglessdram.SPECWorkloads()...)
	wls = append(wls, taglessdram.MixWorkloads()...)
	wls = append(wls, taglessdram.PARSECWorkloads()...)
	for _, wl := range wls {
		for _, d := range taglessdram.Designs() {
			if _, err := (taglessdram.Job{Design: d, Workload: wl, Options: base}).Fingerprint(); err != nil {
				return nil, err
			}
		}
	}
	return opts, nil
}

// progressLog records each completed cell's wall-clock time; the sweep
// engine serializes Progress calls but they come from worker goroutines.
type progressLog struct {
	mu    sync.Mutex
	times []time.Time
}

func (p *progressLog) add(taglessdram.SweepProgress) {
	p.mu.Lock()
	p.times = append(p.times, time.Now())
	p.mu.Unlock()
}

func (p *progressLog) take() []time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.times
	p.times = nil
	return t
}

// runnerRun is the record of one runner call in the timed window.
type runnerRun struct {
	name       string
	start, end time.Time
	done       []time.Time // per-cell completion times
	digests    []string
}

func runFiguresCold(cfg *runConfig) (*measured, error) {
	m := &measured{}
	const setupReps = 9
	var opts []taglessdram.Options
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if opts, err = figuresPlan(cfg); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0))
	}
	runners := gridRunners(cfg)
	if cfg.pinning {
		m.pins = &pinSet{}
	}
	var runs []runnerRun
	var plog progressLog
	ctx := context.Background()
	w := openWindow()
	seg := newSegmenter()
	for pass := 0; ; pass++ {
		for i, rc := range runners {
			var results []*taglessdram.Result
			o := opts[i]
			o.Progress = plog.add
			o.MetricsSink = func(r *taglessdram.Result) { results = append(results, r) }
			op := cfg.tr.newOp()
			sp := cfg.tr.begin(rc.name, op, 0, 0)
			start := time.Now()
			rows, err := rc.run(ctx, o)
			end := time.Now()
			cfg.tr.end(sp)
			done := plog.take()
			cfg.tr.cells(op, sp, rc.name, start, done)
			cells := len(done)
			for _, c := range laneSpans(start, done) {
				m.calls = append(m.calls, c.end.Sub(c.start))
			}
			m.jobs += cells
			rr := runnerRun{name: rc.name, start: start, end: end, done: done}
			failed := checkRunner(cfg, m, pass, i, rc.name, rows, err, results, &rr)
			m.attempted += max(cells, failed)
			m.failed += failed
			runs = append(runs, rr)
		}
		seg.mark(m, m.jobs)
		if time.Since(w.start) >= cfg.seconds {
			break
		}
	}
	w.close(m)
	m.extra["sweep.idle_worker_frac"] = idleWorkerFrac(runs, w.start)
	m.extra["taglessdram.duplicate_cell_frac"] = duplicateFrac(runs[:len(runners)])
	m.extra["system.accurate_ref_frac"] = 1
	return m, nil
}

// checkRunner verifies one runner call and returns how many of its cells
// failed: an error fails them all; a Result that misses its pin or fails
// latency attribution fails its cell; rows that miss their pin fail every
// cell of the runner.
func checkRunner(cfg *runConfig, m *measured, pass, idx int, name string, rows any, err error,
	results []*taglessdram.Result, rr *runnerRun) int {
	cells := max(len(rr.done), 1)
	if err != nil {
		m.note("%s: %v", name, err)
		return cells
	}
	bad := 0
	for j, r := range results {
		d, cerr := resultDigest(r)
		if cerr == nil {
			cerr = taglessdram.CheckLatencyAttribution(r)
		}
		rr.digests = append(rr.digests, d)
		switch {
		case cerr != nil:
			bad++
			m.note("%s result %d: %v", name, j, cerr)
		case cfg.pins != nil && (idx >= len(cfg.pins.Figures) || j >= len(cfg.pins.Figures[idx].Results) ||
			cfg.pins.Figures[idx].Results[j] != d):
			bad++
			m.note("%s result %d: digest %s differs from the pinned reference", name, j, d)
		}
	}
	if !allFinite(reflect.ValueOf(rows)) {
		m.note("%s: rows hold a NaN or Inf", name)
		return cells
	}
	rd := rowsDigest(rows)
	if cfg.pins != nil {
		if idx >= len(cfg.pins.Figures) || cfg.pins.Figures[idx].Name != name ||
			cfg.pins.Figures[idx].Rows != rd || cfg.pins.Figures[idx].Cells != len(rr.done) {
			m.note("%s: rows digest %s or cell count %d differs from the pinned reference", name, rd, len(rr.done))
			return cells
		}
	}
	if cfg.pinning && pass == 0 {
		m.pins.Figures = append(m.pins.Figures, runnerPin{Name: name, Cells: len(rr.done), Results: rr.digests, Rows: rd})
	}
	if bad > cells {
		bad = cells
	}
	return bad
}

// allFinite walks a runner's typed rows and rejects NaN or Inf floats.
func allFinite(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return finite(v.Float())
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !allFinite(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !allFinite(v.Field(i)) {
				return false
			}
		}
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			return allFinite(v.Elem())
		}
	}
	return true
}

// idleWorkerFrac is idle worker-seconds over all worker-seconds of the
// window. Inside a runner's sweep a worker is idle once the queue is
// empty: the workers finishing the last W of its n cells take no new
// cell, so the straggler tail is Σ (end - c_k) over the last W
// completions. Between runner calls both workers are idle.
func idleWorkerFrac(runs []runnerRun, start time.Time) float64 {
	if len(runs) == 0 {
		return 0
	}
	var idle, total time.Duration
	prev := start
	for _, rr := range runs {
		idle += workers * rr.start.Sub(prev)
		n := len(rr.done)
		span := rr.end.Sub(rr.start)
		switch {
		case n == 0:
			idle += workers * span
		case n < workers:
			idle += time.Duration(workers-n) * span
			for _, c := range rr.done {
				idle += rr.end.Sub(c)
			}
		default:
			for _, c := range rr.done[n-workers:] {
				idle += rr.end.Sub(c)
			}
		}
		prev = rr.end
	}
	total = workers * prev.Sub(start)
	if total <= 0 {
		return 0
	}
	return float64(idle) / float64(total)
}

// duplicateFrac is the share of one pass's Results whose digest equals an
// earlier Result's in the same pass: cells a shared result cache would
// have replayed.
func duplicateFrac(runs []runnerRun) float64 {
	seen := map[string]bool{}
	dup, all := 0, 0
	for _, rr := range runs {
		for _, d := range rr.digests {
			all++
			if seen[d] {
				dup++
			}
			seen[d] = true
		}
	}
	if all == 0 {
		return 0
	}
	return float64(dup) / float64(all)
}
