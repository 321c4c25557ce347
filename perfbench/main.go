// Command perfbench is the repository benchmark: it runs one named
// workload in-process for a fixed wall-clock window, checks every output
// it produced, and prints one JSON result line. Build and run it through
// run.py next to this file:
//
//	python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it runs the workload again with span recording on and
// then the layer rig (isolation replays of the hot-path layers), writes
// the spans as Chrome trace_event JSON and a per-layer table, and prints
// the per-layer metrics instead of the end-to-end ones.
//
// Workloads:
//
//	figures-cold     the cmd/experiments grid (-quick budgets) plus its
//	                 virtualization slice, 2 workers, no result cache
//	sampled-long     SMARTS-sampled runs restored from checkpoints
//	service-resweep  2 closed-loop clients re-sweeping a sweep service
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"taglessdram"
)

// defaultSeed is the seed the pinned reference digests were recorded
// under (the cmd/experiments default). Any other seed runs only the
// checks that do not depend on the seed.
const defaultSeed = 1

// workers bounds every pool and client count: the loads are sized for a
// 2-CPU machine, where more workers than CPUs would measure the scheduler.
const workers = 2

// runConfig carries the command line into a workload.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil: untraced run
	pins    *pinSet // nil when no pins exist for this model version or seed
	scratch string  // directory for checkpoints and result caches
	pinning bool    // recording pins instead of checking them
	tiny    bool    // self-test scale: a few runners at tiny budgets
}

// measured is what one workload run reports back: its op accounting,
// its timed window, its set-up repetitions and each op's latency (a grid
// cell from a worker taking it to its completion; a sampled run from its
// Sweep call to the call's return; a sweep request from RemoteSweep to
// its done event). The end-to-end metrics are derived from it uniformly.
type measured struct {
	attempted, failed int
	setups            []time.Duration
	jobs              int             // grid cells completed in the window
	wall              time.Duration   // timed window
	cpu               time.Duration   // process CPU in the window
	calls             []time.Duration // one per op
	// segments split the window into passes, rounds or time slices; the
	// throughput metrics are their medians, which a burst of load from
	// outside the process moves less than a whole-window total.
	segments []segment
	rss      float64 // peak resident set (MB) when the window closed
	// Workload-specific extras for the traced report and per-layer rows.
	extra map[string]float64
	notes []string
	// pins collects reference digests when pinning.
	pins *pinSet
	// sampled is sampled-long's per-cell accuracy (traced or pinning).
	sampled []cellAccuracy
}

// fail counts n failed ops and keeps the first few reasons.
func (m *measured) fail(n int, format string, args ...any) {
	m.failed += n
	m.note(format, args...)
}

func (m *measured) note(format string, args ...any) {
	if len(m.notes) < 20 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

func (m *measured) printNotes() {
	for _, n := range m.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check:", n)
	}
}

type workloadFunc func(cfg *runConfig) (*measured, error)

var workloads = map[string]workloadFunc{
	"figures-cold":    runFiguresCold,
	"sampled-long":    runSampledLong,
	"service-resweep": runServiceResweep,
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: figures-cold | sampled-long | service-resweep")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed (pinned digests exist for the default)")
		seconds = flag.Float64("seconds", 20, "timed window in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file and layer table")
		pinsDir = flag.String("pins", "perfbench/pins", "directory of pinned reference digests")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for scratch state, span files and reports")
		pin     = flag.Bool("pin", false, "record the default seed's reference digests for the current model version (refuses to overwrite)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *pinsDir, *outDir, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, pinsDir, outDir string, pin bool) error {
	if pin {
		return recordPins(pinsDir, outDir)
	}
	wf, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	pins, err := loadPins(pinsDir, taglessdram.ModelVersion())
	if err != nil {
		return err
	}
	scratch, err := makeScratch(outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := &runConfig{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), scratch: scratch}
	if seed == defaultSeed {
		cfg.pins = pins
	}
	if !traced {
		m, err := wf(cfg)
		if err != nil {
			return err
		}
		m.printNotes()
		logSegments(m)
		return emit(m, endToEnd(m))
	}
	// The traced run repeats the workload untraced first, so the tracing
	// overhead is the difference between two runs of one process.
	plain, err := wf(cfg)
	if err != nil {
		return err
	}
	plain.printNotes()
	cfg.tr = newTracer()
	m, err := wf(cfg)
	if err != nil {
		return err
	}
	m.printNotes()
	rig, err := runRig(cfg, name, m)
	if err != nil {
		return err
	}
	rig.spans = cfg.tr.snapshot()
	if err := checkSpans(rig.spans); err != nil {
		return fmt.Errorf("span tree: %w", err)
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := writeTraceFile(cfg.tr, stem+".trace.json"); err != nil {
		return err
	}
	report := rig.report(name, seed, m, endToEnd(plain), endToEnd(m), stem+".trace.json")
	if err := os.WriteFile(stem+".layers.md", []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, report)
	m.attempted += plain.attempted
	m.failed += plain.failed
	return emit(m, rig.metrics)
}

// makeScratch creates a fresh per-run directory under outDir.
func makeScratch(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}

func emit(m *measured, metrics map[string]metric) error {
	out := result{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// segment is one stretch of the timed window.
type segment struct {
	jobs      int
	wall, cpu time.Duration
}

// endToEnd derives the user-visible metrics of one run.
func endToEnd(m *measured) map[string]metric {
	p50, tail, _, _ := callStats(m.calls)
	segs := m.segments
	if len(segs) == 0 {
		segs = []segment{{m.jobs, m.wall, m.cpu}}
	}
	var rate, cpu []float64
	for _, s := range segs {
		if s.jobs > 0 && s.wall > 0 {
			rate = append(rate, float64(s.jobs)/s.wall.Seconds())
			cpu = append(cpu, ms(s.cpu)/float64(s.jobs))
		}
	}
	return map[string]metric{
		"setup_s":         {median(seconds(m.setups)), "s"},
		"jobs_per_s":      {median(rate), "1/s"},
		"cpu_ms_per_job":  {median(cpu), "ms"},
		"peak_rss_mb":     {m.rss, "MB"},
		"request_p50_ms":  {p50, "ms"},
		"request_tail_ms": {tail, "ms"},
	}
}

// logSegments prints the op-latency tail's percentile and sample count,
// and each segment's throughput, to stderr: a run whose figures stray can
// then be told apart from one disturbed for a moment.
func logSegments(m *measured) {
	p50, tail, pct, n := callStats(m.calls)
	fmt.Fprintf(os.Stderr, "perfbench: op latency p50 %.4g ms, tail p%.2f %.4g ms, %d ops\n", p50, pct, tail, n)
	var b strings.Builder
	for _, s := range m.segments {
		if s.wall > 0 {
			fmt.Fprintf(&b, " %.4g", float64(s.jobs)/s.wall.Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: jobs/s per segment:%s\n", b.String())
}
