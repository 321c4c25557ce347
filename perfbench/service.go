package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taglessdram"
	"taglessdram/internal/resultcache"
	"taglessdram/internal/sim"
	"taglessdram/internal/telemetry"
)

// The service-resweep grid: every organization on four SPEC programs.
var serviceWorkloads = []string{"sphinx3", "mcf", "libquantum", "GemsFDTD"}

const (
	serviceBudget = 100_000 // warm-up and measured instructions per core
	// resweepEvery: every resweepEvery-th request of a client sets the
	// tagless-only NCAccessThreshold to a value no request used before, so
	// exactly the cTLB cells miss the cache, re-simulate and Put. Any
	// positive threshold enables the same offline non-cacheable policy,
	// so every re-sweep costs the same simulation work.
	resweepEvery = 5
	// serviceSlice is the length of the time slices the window's
	// throughput is taken over.
	serviceSlice = 2 * time.Second
)

func serviceJobs(seed uint64, ncThreshold int) []taglessdram.Job {
	o := taglessdram.DefaultOptions()
	o.Seed = seed
	o.Warmup, o.Measure = serviceBudget, serviceBudget
	o.NCAccessThreshold = ncThreshold
	var jobs []taglessdram.Job
	for _, wl := range serviceWorkloads {
		for _, d := range taglessdram.Organizations() {
			jobs = append(jobs, taglessdram.Job{Design: d, Workload: wl, Options: o})
		}
	}
	return jobs
}

// serverRecord is what the ServeHTTP wrapper saw of one sweep request.
type serverRecord struct {
	start, end time.Time
	bytes      int
}

// service is one running sweep server on a loopback listener.
type service struct {
	url   string
	store *taglessdram.ResultCache
	srv   *http.Server
	done  chan error

	mu      sync.Mutex
	records map[string]chan serverRecord // by sweep ID
}

var sweepIDPattern = regexp.MustCompile(`"sweep_id":"([^"]+)"`)

// recorder counts the response bytes and sniffs the sweep ID out of the
// first streamed event.
type recorder struct {
	http.ResponseWriter
	bytes int
	head  []byte
}

func (r *recorder) Write(b []byte) (int, error) {
	if len(r.head) < 512 {
		r.head = append(r.head, b[:min(len(b), 512-len(r.head))]...)
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

func (r *recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *service) record(id string) chan serverRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.records[id]
	if !ok {
		ch = make(chan serverRecord, 1)
		s.records[id] = ch
	}
	return ch
}

func (s *service) forget(id string) {
	s.mu.Lock()
	delete(s.records, id)
	s.mu.Unlock()
}

// startService opens a fresh result cache under dir and serves a sweep
// server with 2 workers per sweep. traced wraps ServeHTTP to time each
// sweep request server-side.
func startService(dir string, traced bool) (*service, error) {
	store, err := taglessdram.OpenResultCache(dir)
	if err != nil {
		return nil, err
	}
	ss, err := taglessdram.NewSweepServer(store, workers, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{url: "http://" + ln.Addr().String(), store: store, done: make(chan error, 1),
		records: map[string]chan serverRecord{}}
	var h http.Handler = ss
	if traced {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &recorder{ResponseWriter: w}
			start := time.Now()
			ss.ServeHTTP(rec, r)
			end := time.Now()
			if m := sweepIDPattern.FindSubmatch(rec.head); m != nil && r.URL.Path == "/v1/sweep" {
				s.record(string(m[1])) <- serverRecord{start, end, rec.bytes}
			}
		})
	}
	s.srv = &http.Server{Handler: h}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// encodeAll re-encodes results in the result cache's own codec: the
// bytes a replay must reproduce.
func encodeAll(res []*taglessdram.Result) ([][]byte, error) {
	out := make([][]byte, len(res))
	for i, r := range res {
		b, err := resultcache.Encode(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// serviceReq is one client request's record.
type serviceReq struct {
	client   int
	resweep  bool
	sweepID  string
	start    time.Time
	latency  time.Duration
	server   serverRecord
	hasSrv   bool
	fresh    int
	failed   int
	failNote string
}

func runServiceResweep(cfg *runConfig) (*measured, error) {
	ctx := context.Background()
	m := &measured{extra: map[string]float64{}}
	base := serviceJobs(cfg.seed, 0)
	var svc *service
	var fill []*taglessdram.Result
	var stored [][]byte
	const setupReps = 5
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		dir, err := os.MkdirTemp(cfg.scratch, "cache-")
		if err != nil {
			return nil, err
		}
		svc, err = startService(dir, cfg.tr != nil)
		if err != nil {
			return nil, err
		}
		o := base[0].Options
		o.Workers = workers
		fill, err = taglessdram.RemoteSweep(ctx, svc.url, base, o)
		if err != nil {
			svc.stop()
			return nil, fmt.Errorf("cold fill: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0))
		if stored, err = encodeAll(fill); err != nil {
			svc.stop()
			return nil, err
		}
	}
	defer svc.stop()
	digests := make([]string, len(fill))
	for i, r := range fill {
		d, err := resultDigest(r)
		if err != nil {
			return nil, err
		}
		digests[i] = d
	}
	if msg := checkServicePins(cfg, digests); msg != "" {
		m.fail(len(base), "%s", msg)
	}
	if cfg.pinning {
		m.pins = &pinSet{Service: digests}
	}
	tagless := make([]bool, len(base))
	for i, j := range base {
		tagless[i] = j.Design == taglessdram.Tagless
	}
	stats0 := svc.store.Stats()
	deadline := time.Now().Add(cfg.seconds)
	reqs := make([][]serviceReq, workers)
	var wg sync.WaitGroup
	var doneCells atomic.Int64
	w := openWindow()
	seg := newSegmenter()
	stopTick, tickDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tickDone)
		t := time.NewTicker(serviceSlice)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				seg.mark(m, int(doneCells.Load()))
			case <-stopTick:
				return
			}
		}
	}()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				rq := serviceReq{client: c, resweep: k%resweepEvery == resweepEvery-1}
				nc := 0
				if rq.resweep {
					// Disjoint per client, never reused: thresholds
					// 2+c, 4+c, 6+c, ...
					nc = 2 + 2*(k/resweepEvery) + c
				}
				jobs := serviceJobs(cfg.seed, nc)
				o := jobs[0].Options
				o.Workers = workers
				o.OnSweepAccepted = func(a taglessdram.SweepAccepted) { rq.sweepID = a.SweepID }
				op := cfg.tr.newOp()
				rq.start = time.Now()
				res, err := taglessdram.RemoteSweep(ctx, svc.url, jobs, o)
				rq.latency = time.Since(rq.start)
				checkServiceReq(&rq, res, err, stored, tagless)
				if rq.failed == 0 {
					doneCells.Add(int64(len(jobs)))
				}
				if cfg.tr != nil {
					traceServiceReq(ctx, cfg.tr, svc, op, &rq)
				}
				reqs[c] = append(reqs[c], rq)
				if time.Now().After(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopTick)
	<-tickDone
	stats1 := svc.store.Stats()
	cells, fresh, resweeps := 0, 0, 0
	for _, rs := range reqs {
		for _, rq := range rs {
			m.attempted++
			m.calls = append(m.calls, rq.latency)
			if rq.resweep {
				resweeps++
			}
			if rq.failed > 0 {
				m.fail(1, "%s", rq.failNote)
				continue
			}
			cells += len(base)
			fresh += rq.fresh
		}
	}
	// Every re-sweep misses exactly its cTLB cells; anything else is a
	// cache that failed to serve a replay (or served a stale entry).
	perResweep := 0
	for _, t := range tagless {
		if t {
			perResweep++
		}
	}
	if misses := stats1.Misses - stats0.Misses; misses != uint64(resweeps*perResweep) {
		m.note("result cache saw %d misses for %d re-sweeps of %d cTLB cells", misses, resweeps, perResweep)
	}
	m.jobs = cells
	w.close(m)
	if lookups := (stats1.Hits - stats0.Hits) + (stats1.Misses - stats0.Misses); lookups > 0 {
		m.extra["resultcache.hit_frac"] = float64(stats1.Hits-stats0.Hits) / float64(lookups)
	}
	m.extra["resultcache.evictions"] = float64(stats1.Evicted - stats0.Evicted)
	if cells > 0 {
		m.extra["taglessdram.duplicate_cell_frac"] = float64(cells-fresh) / float64(cells)
	}
	m.extra["system.accurate_ref_frac"] = 1
	if cfg.tr != nil {
		serviceLayerRows(cfg.tr, reqs, m.extra)
	}
	return m, nil
}

// checkServicePins compares the set-up fill with the pinned digests
// (metrics-JSON digests: the result-cache encoding's bytes depend on the
// order a process first meets each gob type, so they are compared only
// within one run).
func checkServicePins(cfg *runConfig, digests []string) string {
	if cfg.pins == nil {
		return ""
	}
	if len(cfg.pins.Service) != len(digests) {
		return fmt.Sprintf("cold fill produced %d cells, pinned %d", len(digests), len(cfg.pins.Service))
	}
	for i, d := range digests {
		if d != cfg.pins.Service[i] {
			return fmt.Sprintf("cold-fill cell %d digest %s differs from the pinned reference", i, d)
		}
	}
	return ""
}

// checkServiceReq verifies one request: replayed cells must be
// byte-identical to the set-up fill; the cTLB cells of a re-sweep are
// fresh simulations and must pass latency attribution.
func checkServiceReq(rq *serviceReq, res []*taglessdram.Result, err error, stored [][]byte, tagless []bool) {
	if err != nil {
		rq.failed, rq.failNote = 1, err.Error()
		return
	}
	if len(res) != len(stored) {
		rq.failed, rq.failNote = 1, fmt.Sprintf("%d results for %d cells", len(res), len(stored))
		return
	}
	for i, r := range res {
		if rq.resweep && tagless[i] {
			rq.fresh++
			if err := taglessdram.CheckLatencyAttribution(r); err != nil {
				rq.failed, rq.failNote = 1, fmt.Sprintf("fresh cell %d: %v", i, err)
				return
			}
			continue
		}
		b, err := resultcache.Encode(r)
		if err != nil || !bytes.Equal(b, stored[i]) {
			rq.failed, rq.failNote = 1, fmt.Sprintf("replayed cell %d is not byte-identical to the stored result", i)
			return
		}
	}
}

// traceServiceReq records the request's spans: RemoteSweep as the op
// root, the ServeHTTP wrapper under it, and the server's own per-sweep
// spans (fetched through RemoteTrace) under the wrapper.
func traceServiceReq(ctx context.Context, tr *tracer, svc *service, op int64, rq *serviceReq) {
	root := tr.add("RemoteSweep", "call", op, 0, rq.client+1, rq.start, rq.start.Add(rq.latency))
	if rq.sweepID == "" {
		return
	}
	select {
	case rec := <-svc.record(rq.sweepID):
		rq.server, rq.hasSrv = rec, true
	case <-time.After(5 * time.Second):
		return
	}
	svc.forget(rq.sweepID)
	wrap := tr.add("ServeHTTP /v1/sweep", "server", op, root, rq.client+1, rq.server.start, rq.server.end)
	raw, err := taglessdram.RemoteTrace(ctx, svc.url, rq.sweepID)
	if err != nil {
		return
	}
	var f struct {
		TraceEvents []sim.TraceEvent `json:"traceEvents"`
	}
	if json.Unmarshal(raw, &f) != nil {
		return
	}
	// Rebuild the server trace's nesting: the sweep umbrella (lane 0)
	// holds the sweep-level phases and every job's umbrella; each job's
	// umbrella holds that job's phases.
	add := func(ev sim.TraceEvent, parent int64) int64 {
		s := rq.server.start.Add(time.Duration(ev.TS) * time.Microsecond)
		e := s.Add(time.Duration(ev.Dur) * time.Microsecond)
		if e.After(rq.server.end) {
			e = rq.server.end
		}
		if s.After(e) {
			s = e
		}
		return tr.add("sweepd "+ev.Name, "sweepd:"+ev.Cat, op, parent, 10+ev.TID, s, e)
	}
	umbrella := func(ev sim.TraceEvent) bool {
		return ev.Cat == telemetry.CatSimulated || ev.Cat == telemetry.CatCached
	}
	sweepSpan := wrap
	for _, ev := range f.TraceEvents {
		if ev.TID == 0 && ev.Cat == telemetry.CatSweep && strings.HasPrefix(ev.Name, "sweep ") {
			sweepSpan = add(ev, wrap)
		}
	}
	jobs := map[int]int64{}
	for _, ev := range f.TraceEvents {
		if umbrella(ev) {
			jobs[ev.TID] = add(ev, sweepSpan)
		}
	}
	for _, ev := range f.TraceEvents {
		switch {
		case umbrella(ev) || (ev.TID == 0 && strings.HasPrefix(ev.Name, "sweep ")):
		case jobs[ev.TID] != 0:
			add(ev, jobs[ev.TID])
		default:
			add(ev, sweepSpan)
		}
	}
}

// serviceLayerRows derives the sweepd.* and remote.* rows from the
// traced requests: per-phase medians of the server's own spans, the
// response size, and the client's share of each request.
func serviceLayerRows(tr *tracer, reqs [][]serviceReq, extra map[string]float64) {
	phase := map[string][]float64{}
	var busy, total time.Duration
	for _, s := range tr.snapshot() {
		name, ok := strings.CutPrefix(s.Name, "sweepd ")
		if !ok {
			continue
		}
		d := ms(s.End - s.Start)
		switch name {
		case "validate", "queued", "cache-lookup", "simulate", "encode", "streamed":
			phase[name] = append(phase[name], d)
			if name == "simulate" || name == "cache-lookup" {
				busy += s.End - s.Start
			}
		case "cached-hit":
			busy += s.End - s.Start
		default:
			if strings.HasPrefix(name, "sweep ") {
				total += workers * (s.End - s.Start)
			}
		}
	}
	extra["sweepd.validate_ms"] = median(phase["validate"])
	extra["sweepd.queue_wait_ms"] = median(phase["queued"])
	extra["sweepd.cache_lookup_ms"] = median(phase["cache-lookup"])
	extra["sweepd.simulate_ms"] = median(phase["simulate"])
	extra["sweepd.encode_ms"] = median(phase["encode"])
	extra["sweepd.stream_ms"] = median(phase["streamed"])
	var kb, client []float64
	for _, rs := range reqs {
		for _, rq := range rs {
			if rq.hasSrv {
				kb = append(kb, float64(rq.server.bytes)/1024)
				client = append(client, ms(rq.latency-rq.server.end.Sub(rq.server.start)))
			}
		}
	}
	extra["sweepd.response_kb"] = median(kb)
	extra["remote.client_ms"] = median(client)
	if total > 0 {
		extra["sweep.idle_worker_frac"] = 1 - float64(busy)/float64(total)
	}
}
