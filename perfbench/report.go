package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"taglessdram"
	"taglessdram/internal/config"
	"taglessdram/internal/resultcache"
	"taglessdram/internal/system"
	"taglessdram/internal/trace"
)

// designNames are the seven organizations as the per-layer metric names
// spell them.
func designNames() []string {
	out := make([]string, len(rigDesigns))
	for i, d := range rigDesigns {
		out[i] = d.String()
	}
	return out
}

// layerMetric declares one per-layer metric: its unit and whether lower
// is better.
type layerMetric struct {
	name, unit string
	lower      bool
}

// perLayerMetrics is the full per-layer schema, in report order.
func perLayerMetrics() []layerMetric {
	ls := []layerMetric{
		{"sweep.idle_worker_frac", "frac", true},
		{"taglessdram.duplicate_cell_frac", "frac", true},
		{"system.new_ms", "ms", true},
		{"system.warmup_ns_per_ref", "ns", true},
	}
	for _, prefix := range []string{"system.step_ns_per_ref.", "system.unexplained_ns_per_ref.", "system.ff_ns_per_ref."} {
		for _, d := range designNames() {
			ls = append(ls, layerMetric{prefix + d, "ns", true})
		}
	}
	ls = append(ls,
		layerMetric{"system.accurate_ref_frac", "frac", true},
		layerMetric{"system.checkpoint_save_ms", "ms", true},
		layerMetric{"system.checkpoint_load_ms", "ms", true},
		layerMetric{"system.checkpoint_kb", "KB", true},
		layerMetric{"trace.next_ns", "ns", true},
		layerMetric{"trace.next_visit_ns_per_ref", "ns", true},
		layerMetric{"tlb.lookup_ns", "ns", true},
		layerMetric{"tlb.miss_frac", "frac", true},
		layerMetric{"mmu.walk_ns", "ns", true},
		layerMetric{"vm.walk_ns.fixed", "ns", true},
		layerMetric{"vm.walk_ns.pwc", "ns", true},
		layerMetric{"vm.walk_ns.nested", "ns", true},
		layerMetric{"core.tlb_miss_ns", "ns", true},
		layerMetric{"cache.l1_access_ns", "ns", true},
		layerMetric{"cache.l2_access_ns", "ns", true},
		layerMetric{"cache.l1_hit_frac", "frac", false},
		layerMetric{"cache.l2_hit_frac", "frac", false},
		layerMetric{"cache.invalidate_range_ns", "ns", true},
	)
	for _, prefix := range []string{"org.access_ns.", "org.fast_access_ns."} {
		for _, d := range designNames() {
			ls = append(ls, layerMetric{prefix + d, "ns", true})
		}
	}
	ls = append(ls,
		layerMetric{"dram.access_ns", "ns", true},
		layerMetric{"dram.accesses_per_ref", "1/ref", true},
		layerMetric{"sim.event_ns", "ns", true},
		layerMetric{"sim.events_per_ref", "1/ref", true},
		layerMetric{"resultcache.get_us", "us", true},
		layerMetric{"resultcache.decode_us", "us", true},
		layerMetric{"resultcache.entry_kb", "KB", true},
		layerMetric{"resultcache.hit_frac", "frac", false},
		layerMetric{"resultcache.put_us", "us", true},
		layerMetric{"resultcache.encode_us", "us", true},
		layerMetric{"resultcache.evictions", "count", true},
		layerMetric{"taglessdram.fingerprint_us", "us", true},
		layerMetric{"sweepd.validate_ms", "ms", true},
		layerMetric{"sweepd.queue_wait_ms", "ms", true},
		layerMetric{"sweepd.cache_lookup_ms", "ms", true},
		layerMetric{"sweepd.simulate_ms", "ms", true},
		layerMetric{"sweepd.encode_ms", "ms", true},
		layerMetric{"sweepd.stream_ms", "ms", true},
		layerMetric{"sweepd.response_kb", "KB", true},
		layerMetric{"remote.client_ms", "ms", true},
		layerMetric{"go.alloc_mb_per_job", "MB", true},
		layerMetric{"go.gc_cpu_frac", "frac", true},
	)
	return ls
}

// rigResult is the traced run's per-layer account.
type rigResult struct {
	metrics map[string]metric
	source  map[string]string // "workload" or "rig"
	rows    []*designRow

	spans       []span // the whole run's span tree, for the self-time table
	walkModelNs map[string]float64
	walkStep    map[string][]float64 // cTLB step ns/ref per walk model, BENCH_step's cell
	serviceReqs int                  // requests behind the sweepd.* rows (0: the workload's own)
}

// runRig measures every per-layer metric the workload did not produce
// itself, on fixed cells: the hot-path isolation replays, the machine's
// step and fast-forward timings, and micro-measurements of the cache,
// checkpoint, fingerprint and service layers.
func runRig(cfg *runConfig, workload string, m *measured) (*rigResult, error) {
	rr := &rigResult{metrics: map[string]metric{}, source: map[string]string{}}
	val := map[string]float64{}
	w, err := rigWorkloadFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	refs, err := recordStream(w, rigWarmRefs+rigRefs)
	if err != nil {
		return nil, err
	}
	tr := cfg.tr
	op := tr.newOp()
	root := tr.begin("layer rig", op, 0, 0)
	defer tr.end(root)
	child := func(name string, f func() error) error {
		sp := tr.begin(name, op, root, 0)
		defer tr.end(sp)
		return f()
	}

	// internal/trace.
	var trNext, trVisit float64
	if err := child("trace.Generator", func() error {
		trNext, trVisit, err = meterTrace(w)
		return err
	}); err != nil {
		return nil, err
	}
	val["trace.next_ns"], val["trace.next_visit_ns_per_ref"] = trNext, trVisit

	// Every organization: step and fast-forward, replays, counts. Only
	// the NoL3 replay (physical keys) and the cTLB replay (cache-address
	// keys, evictions) feed the shared rows below.
	var baseRP, taglessRP *replay
	for _, d := range rigDesigns {
		var row *designRow
		var rp *replay
		if err := child("design "+d.String(), func() error {
			row, rp, err = meterDesign(d, w, refs)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%v: %w", d, err)
		}
		rr.rows = append(rr.rows, row)
		switch d {
		case config.NoL3:
			baseRP = rp
		case config.Tagless:
			taglessRP = rp
		}
	}
	base, tagless := rr.rows[0], rr.rows[3]
	baseCfg := rigConfig(config.NoL3, "")
	var tlbNs float64
	if err := child("tlb / mmu / vm", func() error {
		if tlbNs, err = meterTLB(baseCfg, refs, baseRP); err != nil {
			return err
		}
		val["mmu.walk_ns"] = base.ptWalkNs
		rr.walkModelNs = map[string]float64{}
		for _, wm := range []string{"fixed", "pwc", "nested"} {
			rr.walkModelNs[wm] = meterWalkModel(baseCfg, wm, baseRP)
			val["vm.walk_ns."+wm] = rr.walkModelNs[wm]
		}
		rr.walkStep, err = meterWalkSteps(cfg.seed)
		return err
	}); err != nil {
		return nil, err
	}
	val["tlb.lookup_ns"] = tlbNs
	val["tlb.miss_frac"] = base.tlbMissPerRef
	val["core.tlb_miss_ns"] = tagless.walkNs
	val["cache.l1_access_ns"], val["cache.l2_access_ns"] = base.l1Ns, base.l2Ns
	val["cache.l1_hit_frac"], val["cache.l2_hit_frac"] = base.l1HitFrac, base.l2HitFrac
	var invNs, eventNs float64
	if err := child("cache.InvalidateRange / dram.Device / sim.Kernel", func() error {
		invNs = meterInvalidateRange(rigConfig(config.Tagless, ""), taglessRP)
		val["dram.access_ns"] = meterDRAM(baseCfg, baseRP)
		eventNs = meterKernel(200_000)
		return nil
	}); err != nil {
		return nil, err
	}
	val["cache.invalidate_range_ns"] = invNs
	val["sim.event_ns"] = eventNs
	var devPerRef, eventsPerRef float64
	for _, row := range rr.rows {
		row.explain(trNext, tlbNs, eventNs, invNs, baseCfg.CPU.Cores)
		val["system.step_ns_per_ref."+row.design] = row.step
		val["system.ff_ns_per_ref."+row.design] = row.ff
		val["system.unexplained_ns_per_ref."+row.design] = row.step - row.explained
		val["org.access_ns."+row.design] = row.orgNs
		val["org.fast_access_ns."+row.design] = row.orgFastNs
		devPerRef += row.devPerRef / float64(len(rr.rows))
		eventsPerRef += row.eventsPerRef / float64(len(rr.rows))
	}
	val["dram.accesses_per_ref"] = devPerRef
	val["sim.events_per_ref"] = eventsPerRef

	// internal/system: construction, cold warm-up, checkpoints.
	if err := child("system.New / Warmup / checkpoints", func() error {
		return meterSystem(cfg.seed, refs, val)
	}); err != nil {
		return nil, err
	}

	// internal/resultcache and the job fingerprint.
	if err := child("resultcache / Job.Fingerprint", func() error {
		return meterResultCache(cfg, val)
	}); err != nil {
		return nil, err
	}

	// The service rows come from the workload's own requests when it is
	// the service workload, otherwise from a short traced session.
	if workload != "service-resweep" {
		if err := child("sweepd session", func() error {
			n, err := serviceSession(cfg, val)
			rr.serviceReqs = n
			return err
		}); err != nil {
			return nil, err
		}
	}

	for _, lm := range perLayerMetrics() {
		v, fromWorkload := m.extra[lm.name]
		src := "workload"
		if !fromWorkload {
			v, src = val[lm.name], "rig"
		}
		rr.metrics[lm.name] = metric{v, lm.unit}
		rr.source[lm.name] = src
	}
	return rr, nil
}

// meterTrace times Generator.Next per reference and NextVisit per
// reference it stands for, each on a fresh generator past the warm-up.
func meterTrace(w system.Workload) (next, visit float64, err error) {
	fresh := func() (*trace.Generator, error) {
		g, err := trace.NewThreadGroup(w.PerCore[0], 1, w.Seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < rigWarmRefs; i++ {
			g[0].Next()
		}
		for !g[0].AtVisitBoundary() {
			g[0].Next()
		}
		return g[0], nil
	}
	var xs, vs []float64
	for r := 0; r < rigReps; r++ {
		g, err := fresh()
		if err != nil {
			return 0, 0, err
		}
		d := timeIt(func() {
			for i := 0; i < rigRefs; i++ {
				g.Next()
			}
		})
		xs = append(xs, float64(d.Nanoseconds())/rigRefs)
		if g, err = fresh(); err != nil {
			return 0, 0, err
		}
		var v trace.Visit
		var n uint64
		d = timeIt(func() {
			for n < rigRefs {
				g.NextVisit(&v)
				n += v.Refs
			}
		})
		vs = append(vs, float64(d.Nanoseconds())/float64(n))
	}
	return median(xs), median(vs), nil
}

// meterWalkSteps times the cTLB step under each walk model on
// BENCH_step.json's own cell (libquantum, four cores, 64x scale, 100k
// warm-up references) for the ordering check.
func meterWalkSteps(seed uint64) (map[string][]float64, error) {
	w, err := system.SingleProgram("libquantum", rigShift, seed)
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for r := 0; r < rigReps; r++ { // models interleaved repetition by repetition
		for _, wm := range []string{"fixed", "pwc", "nested"} {
			step, _, err := meterMachine(rigConfig(config.Tagless, wm), w, 1)
			if err != nil {
				return nil, err
			}
			out[wm] = append(out[wm], step...)
		}
	}
	return out, nil
}

// meterSystem times system.New, a cold Warmup, and checkpoint save and
// load on a sampled-long cell (cTLB, mcf, four cores).
func meterSystem(seed uint64, refs []trace.Access, val map[string]float64) error {
	w4, err := system.SingleProgram("mcf", rigShift, seed)
	if err != nil {
		return err
	}
	var news []float64
	for _, d := range rigDesigns {
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, err := system.New(rigConfig(d, ""), w4); err != nil {
				return err
			}
			news = append(news, ms(time.Since(t0)))
		}
	}
	val["system.new_ms"] = median(news)

	w1, err := rigWorkloadFor(seed)
	if err != nil {
		return err
	}
	var warms []float64
	for r := 0; r < 3; r++ {
		m, err := system.New(rigConfig(config.Tagless, ""), w1)
		if err != nil {
			return err
		}
		d := timeIt(func() { err = m.Warmup(instructions(refs[:rigWarmRefs])) })
		if err != nil {
			return err
		}
		warms = append(warms, float64(d.Nanoseconds())/rigWarmRefs)
	}
	val["system.warmup_ns_per_ref"] = median(warms)

	cfg := rigConfig(config.Tagless, "")
	m, err := system.New(cfg, w4)
	if err != nil {
		return err
	}
	if err := m.Warmup(sampledWarmup); err != nil {
		return err
	}
	var saves, loads []float64
	var buf bytes.Buffer
	for r := 0; r < 5; r++ {
		buf.Reset()
		d := timeIt(func() { err = m.SaveCheckpoint(&buf) })
		if err != nil {
			return err
		}
		saves = append(saves, ms(d))
		m2, err := system.New(cfg, w4)
		if err != nil {
			return err
		}
		d = timeIt(func() { err = m2.LoadCheckpoint(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return err
		}
		loads = append(loads, ms(d))
	}
	val["system.checkpoint_save_ms"] = median(saves)
	val["system.checkpoint_load_ms"] = median(loads)
	val["system.checkpoint_kb"] = float64(buf.Len()) / 1024
	return nil
}

// meterResultCache times the store's read-through cycle (a missing Get,
// Put, then hits) and its codec on a fresh store, with results of the
// service grid, and Job.Fingerprint over that grid.
func meterResultCache(cfg *runConfig, val map[string]float64) error {
	jobs := serviceJobs(cfg.seed, 0)
	var fps []float64
	var err error
	for r := 0; r < 5 && err == nil; r++ {
		d := timeIt(func() {
			for _, j := range jobs {
				if _, err = j.Fingerprint(); err != nil {
					return
				}
			}
		})
		fps = append(fps, float64(d.Nanoseconds())/1e3/float64(len(jobs)))
	}
	if err != nil {
		return err
	}
	val["taglessdram.fingerprint_us"] = median(fps)

	res, err := taglessdram.Sweep(context.Background(), jobs[:7], workers)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "rig-cache-")
	if err != nil {
		return err
	}
	store, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	const entries = 64
	keys := make([]resultcache.Key, entries)
	for i := range keys {
		keys[i] = resultcache.KeyOf(fmt.Sprintf("perfbench rig entry %d", i))
	}
	r := res[3] // the cTLB cell: the largest Result
	per := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	var payload []byte
	val["resultcache.encode_us"] = per(timeIt(func() {
		for i := 0; i < entries; i++ {
			payload, err = resultcache.Encode(r)
		}
	}), entries)
	if err != nil {
		return err
	}
	val["resultcache.decode_us"] = per(timeIt(func() {
		for i := 0; i < entries; i++ {
			_, err = resultcache.Decode(payload)
		}
	}), entries)
	if err != nil {
		return err
	}
	for _, k := range keys {
		store.Get(k) // the read-through's miss
	}
	val["resultcache.put_us"] = per(timeIt(func() {
		for i, k := range keys {
			if err = store.Put(k, fmt.Sprintf("perfbench rig entry %d", i), r); err != nil {
				return
			}
		}
	}), entries)
	if err != nil {
		return err
	}
	const rounds = 3
	val["resultcache.get_us"] = per(timeIt(func() {
		for i := 0; i < rounds; i++ {
			for _, k := range keys {
				store.Get(k)
			}
		}
	}), rounds*entries)
	st := store.Stats()
	val["resultcache.hit_frac"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	val["resultcache.evictions"] = float64(st.Evicted)
	if fi, err := os.Stat(filepath.Join(dir, keys[0].String()+".res")); err == nil {
		val["resultcache.entry_kb"] = float64(fi.Size()) / 1024
	}
	return nil
}

// serviceSession runs a short traced session against a fresh sweep
// server for workloads that do not exercise the service: a cold fill,
// warm replays and re-sweeps of the service-resweep grid from one client.
func serviceSession(cfg *runConfig, val map[string]float64) (int, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "rig-service-")
	if err != nil {
		return 0, err
	}
	svc, err := startService(dir, true)
	if err != nil {
		return 0, err
	}
	defer svc.stop()
	ctx := context.Background()
	var reqs []serviceReq
	for k := 0; k < 3*resweepEvery; k++ {
		nc := 0
		if k%resweepEvery == resweepEvery-1 {
			nc = 2 + k
		}
		jobs := serviceJobs(cfg.seed, nc)
		o := jobs[0].Options
		o.Workers = workers
		rq := serviceReq{resweep: nc != 0}
		o.OnSweepAccepted = func(a taglessdram.SweepAccepted) { rq.sweepID = a.SweepID }
		rop := cfg.tr.newOp()
		rq.start = time.Now()
		if _, err := taglessdram.RemoteSweep(ctx, svc.url, jobs, o); err != nil {
			return 0, err
		}
		rq.latency = time.Since(rq.start)
		traceServiceReq(ctx, cfg.tr, svc, rop, &rq)
		reqs = append(reqs, rq)
	}
	serviceLayerRows(cfg.tr, [][]serviceReq{reqs}, val)
	delete(val, "sweep.idle_worker_frac") // the workload measures its own
	return len(reqs), nil
}

// report renders the traced run's tables: end-to-end numbers with the
// tracing overhead, every per-layer metric, the per-design host-time
// account with its unexplained remainder, the replay consistency checks,
// the walk-model ordering, and (sampled-long) per-cell accuracy.
func (rr *rigResult) report(workload string, seed uint64, m *measured, plain, traced map[string]metric, spanFile string) string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p("# perfbench traced run: %s, seed %d\n\n", workload, seed)
	p("Model version %d, %s, GOMAXPROCS %d. Spans: %s\n\n", taglessdram.ModelVersion(), runtime.Version(), runtime.GOMAXPROCS(0), spanFile)
	p("Ops attempted %d, failed %d.\n\n", m.attempted, m.failed)

	p("## End to end, untraced vs traced (same process)\n\n")
	p("| metric | unit | untraced | traced | tracing overhead |\n|---|---|---|---|---|\n")
	for _, k := range sortedKeys(plain) {
		u, t := plain[k].Value, traced[k].Value
		over := "n/a"
		if u != 0 {
			over = fmt.Sprintf("%+.1f%%", 100*(t-u)/u)
		}
		p("| %s | %s | %.4g | %.4g | %s |\n", k, plain[k].Unit, u, t, over)
	}
	p50, tail, pct, n := callStats(m.calls)
	p("\nTraced op latency: p50 %.2f ms, tail p%.1f %.2f ms over %d ops.\n\n", p50, pct, tail, n)

	p("## Per-layer metrics\n\n| metric | value | unit | source |\n|---|---|---|---|\n")
	for _, lm := range perLayerMetrics() {
		mt := rr.metrics[lm.name]
		p("| %s | %.4g | %s | %s |\n", lm.name, mt.Value, mt.Unit, rr.source[lm.name])
	}
	p("\nSource \"rig\": measured on the fixed layer-rig cells (one-core %s, %d warm-up + %d timed references), "+
		"because the row is an isolation replay or this workload does not exercise the layer.", rigWorkload, rigWarmRefs, rigRefs)
	if rr.serviceReqs > 0 {
		p(" The sweepd and remote rows come from a %d-request traced session against a fresh sweep server.", rr.serviceReqs)
	}
	p("\n\n")

	p("## Self time by span (the traced window, the layer rig and the service session)\n\n")
	p("A span's self time is its duration minus the part its children cover.\n\n")
	p("| span | count | total ms | self ms | mean self ms |\n|---|---|---|---|---|\n")
	for _, c := range spanClasses(rr.spans) {
		p("| %s | %d | %.1f | %.1f | %.3f |\n", c.name, c.count, ms(c.total), ms(c.self), ms(c.self)/float64(c.count))
	}
	p("\n")

	p("## Host time per reference, layer by layer (ns/ref)\n\n")
	p("Each layer runs alone over its recorded input; the unexplained row is the step cost minus the sum. ROADMAP target: layers explain at least 90%% of the step.\n\n")
	p("Cells read ns/ref = calls per reference × ns per call.\n\n| design | step | ff |")
	cols := rr.rows[0].parts // NoL3 carries every column, sim.event last
	for _, pt := range cols {
		p(" %s |", pt.name)
	}
	p(" explained | unexplained | explained %% | 90%% target |\n|---|---|---|")
	for range cols {
		p("---|")
	}
	p("---|---|---|---|\n")
	for _, row := range rr.rows {
		p("| %s | %.1f | %.1f |", row.design, row.step, row.ff)
		for i := range cols {
			if i < len(row.parts) {
				pt := row.parts[i]
				p(" %.2f (%.3g × %.1f) |", pt.perCall*pt.perRef, pt.perRef, pt.perCall)
			} else {
				p(" inside the cTLB miss handler |")
			}
		}
		frac := row.explained / row.step
		met := "not met"
		if frac >= 0.9 {
			met = "met"
		}
		p(" %.1f | %.1f | %.0f%% | %s |\n", row.explained, row.step-row.explained, 100*frac, met)
	}
	p("\nStep and fast-forward spread (q1–q3 over %d interleaved repetitions):\n\n", rigReps)
	for _, row := range rr.rows {
		q1, q3 := quartiles(row.stepNs)
		f1, f3 := quartiles(row.ffNs)
		p("- %s: step %.1f [%.1f, %.1f], ff %.1f [%.1f, %.1f] ns/ref\n", row.design, row.step, q1, q3, row.ff, f1, f3)
	}

	p("\n## Replay consistency (replay call counts vs the machine's Result, same cell and window)\n\n")
	p("| design |")
	for _, c := range rr.rows[0].counts {
		p(" %s replay | Result | |", c.name)
	}
	p("\n|---|")
	for range rr.rows[0].counts {
		p("---|---|---|")
	}
	p("\n")
	for _, row := range rr.rows {
		p("| %s |", row.design)
		for _, c := range row.counts {
			p(" %d | %d | %s |", c.replay, c.result, c.mismatch())
		}
		p("\n")
	}
	p("\nThe replay models the per-reference path for this cell's configuration only (no NC classification, hot filter, superpages, shared pages or context switches; one active core). Kernel events cover the whole run; the other counts the measured window.\n\n")

	p("## Walk models\n\n")
	fx, pw, ne := rr.walkModelNs["fixed"], rr.walkModelNs["pwc"], rr.walkModelNs["nested"]
	order := "nested > pwc > fixed: holds"
	if !(ne > pw && pw > fx) {
		order = "nested > pwc > fixed: VIOLATED, the rig is suspect"
	}
	p("Per-miss walk cost alone: fixed %.1f ns, pwc %.1f ns, nested %.1f ns. %s.\n\n", fx, pw, ne, order)
	p("cTLB step under each walk model on BENCH_step.json's cell (libquantum, 4 cores), %d interleaved repetitions:\n\n", rigReps)
	type wq struct{ med, q1, q3 float64 }
	ws := map[string]wq{}
	for _, wm := range []string{"fixed", "pwc", "nested"} {
		q1, q3 := quartiles(rr.walkStep[wm])
		ws[wm] = wq{median(rr.walkStep[wm]), q1, q3}
		p("- %s: %.1f ns/ref [q1 %.1f, q3 %.1f]\n", wm, ws[wm].med, q1, q3)
	}
	f, nn := ws["fixed"], ws["nested"]
	spread := max(f.q3-f.q1, nn.q3-nn.q1)
	verdict := "does not reproduce"
	switch {
	case nn.med < f.med && f.med-nn.med > spread:
		verdict = "reproduces outside the spread"
	case nn.med < f.med:
		verdict = "is within the spread (not resolved)"
	}
	p("\nBENCH_step.json's nested 76.0 < fixed 91.8 ns/ref %s (nested %.1f vs fixed %.1f, spread %.1f).\n\n", verdict, nn.med, f.med, spread)

	if len(m.sampled) > 0 {
		p("## Sampled accuracy per cell (sampled IPC vs the cycle-accurate run of the same restored cell)\n\n")
		p("Spec: window %d, warm %d, period %d references; %dM warm-up + %dM measured instructions per core.\n\n",
			sampledSpec.WindowRefs, sampledSpec.WarmRefs, sampledSpec.PeriodRefs, sampledWarmup/1_000_000, sampledMeasure/1_000_000)
		p("| cell | sampled IPC | CI95 | full IPC | error | CI95 covers | windows | accurate refs | ff refs |\n|---|---|---|---|---|---|---|---|---|\n")
		var sum float64
		for _, a := range m.sampled {
			cov := "no"
			if a.covered {
				cov = "yes"
			}
			p("| %s | %.4f | ±%.4f | %.4f | %.2f%% | %s | %d | %d | %d |\n", a.cell, a.sampledIPC, a.ci95, a.fullIPC, a.errPct, cov, a.windows, a.accurate, a.fast)
			sum += a.errPct
		}
		p("\nsampled_ipc_err_pct (mean over cells, simulated): %.3f%%\n\n", sum/float64(len(m.sampled)))
	}
	return b.String()
}

// quartiles are the first and third quartiles (inclusive method).
func quartiles(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}

// spanClass aggregates the spans of one kind.
type spanClass struct {
	name        string
	count       int
	total, self time.Duration
}

// spanClasses groups spans by kind (numbered names folded together) and
// orders the groups by self time.
func spanClasses(spans []span) []spanClass {
	self := selfTimes(spans)
	byName := map[string]*spanClass{}
	var out []*spanClass
	for _, s := range spans {
		name := s.Name
		switch {
		case s.Cat == "cell":
			name = "runner cell (reconstructed)"
		case strings.HasPrefix(name, "Sweep round"):
			name = "Sweep round"
		case strings.HasPrefix(name, "sweepd sweep "):
			name = "sweepd sweep"
		case s.Cat == "sweepd:simulated" || s.Cat == "sweepd:cached":
			name = "sweepd job (" + strings.TrimPrefix(s.Cat, "sweepd:") + ")"
		}
		c := byName[name]
		if c == nil {
			c = &spanClass{name: name}
			byName[name] = c
			out = append(out, c)
		}
		c.count++
		c.total += s.End - s.Start
		c.self += self[s.ID]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	res := make([]spanClass, len(out))
	for i, c := range out {
		res[i] = *c
	}
	return res
}
