package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"taglessdram"
	"taglessdram/internal/sweep"
)

// The sampled-long grid: three designs on a pointer-chasing program, a
// streaming program and a four-program mix (where sampling is measured
// to be biased).
var (
	sampledDesigns   = []taglessdram.Design{taglessdram.Tagless, taglessdram.SRAMTag, taglessdram.NoL3}
	sampledWorkloads = []string{"mcf", "libquantum", "MIX1"}
)

// sampledSpec keeps the accuracy harness's window and warming prefix
// (TestSampledAccuracy: 2000 + 1000 references) with a period long
// enough that fast-forward covers over 90% of references.
var sampledSpec = taglessdram.SampleSpec{WindowRefs: 2000, WarmRefs: 1000, PeriodRefs: 40000}

const (
	sampledWarmup  = 2_000_000  // instructions per core, warmed once at set-up
	sampledMeasure = 20_000_000 // instructions per core per sampled run
)

type sampledCell struct {
	design   taglessdram.Design
	workload string
	ckpt     string
}

func (c sampledCell) String() string { return c.workload + "/" + c.design.String() }

func sampledCells(dir string) []sampledCell {
	var cells []sampledCell
	for _, wl := range sampledWorkloads {
		for _, d := range sampledDesigns {
			cells = append(cells, sampledCell{d, wl, filepath.Join(dir, fmt.Sprintf("%s-%v.ckpt", wl, d))})
		}
	}
	return cells
}

func sampledOptions(seed uint64) taglessdram.Options {
	o := taglessdram.DefaultOptions()
	o.Seed = seed
	o.Warmup = sampledWarmup
	o.Measure = sampledMeasure
	return o
}

// sampledJobs are the timed ops: restore each cell's checkpoint and run
// the sampled measured phase (accurate when spec is nil).
func sampledJobs(cells []sampledCell, seed uint64, spec *taglessdram.SampleSpec) []taglessdram.Job {
	jobs := make([]taglessdram.Job, len(cells))
	for i, c := range cells {
		o := sampledOptions(seed)
		o.CheckpointLoad = c.ckpt
		o.Sample = spec
		jobs[i] = taglessdram.Job{Design: c.design, Workload: c.workload, Options: o}
	}
	return jobs
}

// sampledSetup warms every cell cycle-accurately and saves its
// checkpoint; the save run's measured phase is a token 10k instructions.
func sampledSetup(ctx context.Context, cells []sampledCell, seed uint64) error {
	jobs := make([]taglessdram.Job, len(cells))
	for i, c := range cells {
		o := sampledOptions(seed)
		o.Measure = 10_000
		o.CheckpointSave = c.ckpt
		jobs[i] = taglessdram.Job{Design: c.design, Workload: c.workload, Options: o}
	}
	_, err := taglessdram.Sweep(ctx, jobs, workers)
	return err
}

// sampledRound runs one round of ops. Untraced it is one Sweep call; the
// traced run drives the same jobs through the sweep engine Sweep wraps
// (internal/sweep, identical for these uncacheable jobs) so each sampled
// run gets its own span.
func sampledRound(ctx context.Context, cfg *runConfig, jobs []taglessdram.Job) ([]*taglessdram.Result, error) {
	if cfg.tr == nil {
		return taglessdram.Sweep(ctx, jobs, workers)
	}
	lanes := make(chan int, workers) // one token per worker lane
	for i := 1; i <= workers; i++ {
		lanes <- i
	}
	return sweep.Run(ctx, jobs, func(_ context.Context, j taglessdram.Job) (*taglessdram.Result, error) {
		lane := <-lanes
		defer func() { lanes <- lane }()
		op := cfg.tr.newOp()
		sp := cfg.tr.begin(fmt.Sprintf("Run %s/%v", j.Workload, j.Design), op, 0, lane)
		defer cfg.tr.end(sp)
		return taglessdram.Run(j.Design, j.Workload, j.Options)
	}, sweep.Options{Workers: workers})
}

func runSampledLong(cfg *runConfig) (*measured, error) {
	ctx := context.Background()
	m := &measured{extra: map[string]float64{}}
	cells := sampledCells(cfg.scratch)
	const setupReps = 5
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := sampledSetup(ctx, cells, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0))
	}
	jobs := sampledJobs(cells, cfg.seed, &sampledSpec)
	var accurate, fast uint64
	var first []*taglessdram.Result
	w := openWindow()
	seg := newSegmenter()
	for round := 0; ; round++ {
		op := cfg.tr.newOp()
		sp := cfg.tr.begin(fmt.Sprintf("Sweep round %d", round), op, 0, 0)
		t0 := time.Now()
		res, err := sampledRound(ctx, cfg, jobs)
		d := time.Since(t0)
		cfg.tr.end(sp)
		for range jobs {
			m.calls = append(m.calls, d)
		}
		m.attempted += len(jobs)
		if err != nil {
			m.fail(len(jobs), "round %d: %v", round, err)
		} else {
			m.jobs += len(jobs)
			for i, r := range res {
				if msg := checkSampled(cfg, i, cells[i], r); msg != "" {
					m.fail(1, "%s", msg)
				}
				if r.Sampled != nil {
					accurate += r.Sampled.MeasuredRefs
					fast += r.Sampled.FastRefs
				}
			}
			if first == nil {
				first = res
			}
		}
		seg.mark(m, m.jobs)
		if time.Since(w.start) >= cfg.seconds {
			break
		}
	}
	w.close(m)
	if accurate+fast > 0 {
		m.extra["system.accurate_ref_frac"] = float64(accurate) / float64(accurate+fast)
	}
	m.extra["sweep.idle_worker_frac"] = idleFromSpans(cfg.tr, "Sweep round", "Run ")
	m.extra["taglessdram.duplicate_cell_frac"] = 0 // one round holds no two identical cells
	if cfg.pinning || cfg.tr != nil {
		if first == nil {
			return nil, fmt.Errorf("no sampled round completed")
		}
		acc, err := sampledAccuracy(ctx, cfg, cells, first)
		if err != nil {
			return nil, err
		}
		m.sampled = acc
		if cfg.pinning {
			m.pins = &pinSet{}
			for i, c := range cells {
				d, err := resultDigest(first[i])
				if err != nil {
					return nil, err
				}
				m.pins.Sampled = append(m.pins.Sampled, sampledPin{Cell: c.String(), Digest: d, FullIPC: acc[i].fullIPC})
			}
		}
	}
	return m, nil
}

// checkSampled applies the sampled-run output checks to one op.
func checkSampled(cfg *runConfig, i int, c sampledCell, r *taglessdram.Result) string {
	s := r.Sampled
	switch {
	case s == nil:
		return fmt.Sprintf("%s: sampled run carries no SampledInfo", c)
	case s.IPC != r.IPC:
		return fmt.Sprintf("%s: SampledInfo.IPC %v != Result.IPC %v", c, s.IPC, r.IPC)
	case s.FastRefs < 2*s.MeasuredRefs:
		return fmt.Sprintf("%s: fast-forward covered %d refs vs %d accurate", c, s.FastRefs, s.MeasuredRefs)
	}
	if err := taglessdram.CheckLatencyAttribution(r); err != nil {
		return fmt.Sprintf("%s: %v", c, err)
	}
	if cfg.pins != nil {
		d, err := resultDigest(r)
		if err != nil {
			return fmt.Sprintf("%s: %v", c, err)
		}
		if i >= len(cfg.pins.Sampled) || cfg.pins.Sampled[i].Cell != c.String() || cfg.pins.Sampled[i].Digest != d {
			return fmt.Sprintf("%s: digest %s differs from the pinned reference", c, d)
		}
	}
	return ""
}

// cellAccuracy is one sampled-long cell's estimate against the
// cycle-accurate run of the same restored cell.
type cellAccuracy struct {
	cell              string
	sampledIPC, ci95  float64
	fullIPC           float64
	errPct            float64
	covered           bool
	windows, accurate uint64
	fast              uint64
}

// sampledAccuracy compares each cell's sampled IPC with the full run's:
// pinned for the default seed, simulated (untimed) for any other.
func sampledAccuracy(ctx context.Context, cfg *runConfig, cells []sampledCell, sampled []*taglessdram.Result) ([]cellAccuracy, error) {
	full := make([]float64, len(cells))
	if cfg.pins != nil && len(cfg.pins.Sampled) == len(cells) {
		for i := range cells {
			full[i] = cfg.pins.Sampled[i].FullIPC
		}
	} else {
		res, err := taglessdram.Sweep(ctx, sampledJobs(cells, cfg.seed, nil), workers)
		if err != nil {
			return nil, fmt.Errorf("full-run references: %w", err)
		}
		for i, r := range res {
			full[i] = r.IPC
		}
	}
	out := make([]cellAccuracy, len(cells))
	for i, c := range cells {
		s := sampled[i].Sampled
		if s == nil {
			return nil, fmt.Errorf("%s: sampled run carries no SampledInfo", c)
		}
		a := cellAccuracy{cell: c.String(), sampledIPC: s.IPC, ci95: s.IPCCI95, fullIPC: full[i],
			windows: s.Windows, accurate: s.MeasuredRefs, fast: s.FastRefs}
		if full[i] > 0 {
			a.errPct = 100 * math.Abs(s.IPC-full[i]) / full[i]
		}
		a.covered = math.Abs(s.IPC-full[i]) <= s.IPCCI95
		out[i] = a
	}
	return out, nil
}

// idleFromSpans is idle worker-seconds over all worker-seconds inside
// the parent spans (rounds), from their worker-lane child spans. Untraced
// runs have no spans and report 0.
func idleFromSpans(t *tracer, parentPrefix, childPrefix string) float64 {
	if t == nil {
		return 0
	}
	var busy, total time.Duration
	for _, s := range t.snapshot() {
		switch {
		case strings.HasPrefix(s.Name, parentPrefix):
			total += workers * (s.End - s.Start)
		case strings.HasPrefix(s.Name, childPrefix):
			busy += s.End - s.Start
		}
	}
	if total <= 0 {
		return 0
	}
	return 1 - float64(busy)/float64(total)
}
