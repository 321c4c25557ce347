package taglessdram

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"taglessdram/internal/resultcache"
	"taglessdram/internal/sweep"
	"taglessdram/internal/sweepapi"
	"taglessdram/internal/telemetry"
)

// maxRequestBytes bounds a sweep request body; a full design × workload
// grid with per-job options is a few hundred KB at most.
const maxRequestBytes = 8 << 20

// DefaultMaxJobs is the default per-request job ceiling of a sweep
// service.
const DefaultMaxJobs = 4096

// drainRetryAfter is the Retry-After header value (seconds) on 503s
// from a draining server: long enough for a typical drain, short enough
// that clients find the replacement instance quickly.
const drainRetryAfter = "30"

// sweepPhases are the per-job and per-sweep execution phases the
// service attributes wall time to, as both the label values of the
// sweepd_phase_duration_seconds histogram family and the nested span
// names of /v1/trace. Only freshly simulated cells have an encode phase
// (rendering the Result and writing it to the store); a cache hit
// streams the stored payload without decoding or encoding it.
var sweepPhases = []string{"validate", "cache-lookup", "simulate", "encode", "stream"}

// SweepServer is the sweep service behind cmd/sweepd: an http.Handler
// that accepts experiment grids (POST /v1/sweep), shards their jobs
// across the sweep worker pool behind one shared result cache and one
// server-lifetime single-flight memo, and streams progress and results
// back as JSON-lines events. Identical cells — within one request or
// across concurrent requests — simulate exactly once: concurrent
// duplicates share the in-flight execution, later ones replay from the
// store.
//
// A cell's result travels as the result cache's payload bytes, the
// Result's flat image: a hit streams the verified stored payload as it
// is, and a fresh simulation is encoded once, for the store and the
// stream alike, so the server never decodes a Result. The image is a
// function of the Result alone, so a replayed cell carries the bytes
// any process would render for it.
//
// Every request additionally feeds the service telemetry layer: GET
// /metrics is a Prometheus text exposition of the cache counters,
// in-flight gauges and per-phase duration histograms; each sweep gets a
// server-assigned ID whose span timeline (per job: queued →
// cache-lookup → cached-hit → streamed, or queued → cache-lookup →
// simulate → encode → streamed) is exported as Chrome trace_event JSON
// on GET /v1/trace?sweep=ID; and SetLogOutput enables structured
// JSON-lines request logging.
//
// The zero value is not usable; construct with NewSweepServer.
type SweepServer struct {
	store      *ResultCache
	flight     *resultcache.Flight[settled]
	maxWorkers int
	maxJobs    int
	start      time.Time

	// baseCtx parents every sweep; Cancel cancels it (hard shutdown:
	// queued jobs are skipped, in-flight simulations finish, streams end
	// with an error event).
	baseCtx context.Context
	cancel  context.CancelFunc

	// mu guards draining and the inflight Add, so a drain cannot race a
	// request between its acceptance check and its registration.
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	sweeps   atomic.Uint64
	simJobs  atomic.Uint64
	sweepSeq atomic.Uint64

	tel serverTelemetry
}

// serverTelemetry bundles the service's observability state: the
// exposition registry, the per-phase histograms, the in-flight gauges,
// the recent-sweep trace ring, and the structured logger (discarding
// until SetLogOutput).
type serverTelemetry struct {
	reg    *telemetry.Registry
	log    *telemetry.Logger
	traces *telemetry.TraceStore

	sweepsInflight *telemetry.Gauge
	jobsInflight   *telemetry.Gauge
	phases         *telemetry.HistVec
	httpRequests   *telemetry.CounterVec
}

// NewSweepServer builds a sweep service over an open result cache.
// maxWorkers bounds concurrent simulations per sweep (0 = GOMAXPROCS);
// maxJobs bounds jobs per request (0 = DefaultMaxJobs).
func NewSweepServer(store *ResultCache, maxWorkers, maxJobs int) (*SweepServer, error) {
	if store == nil {
		return nil, fmt.Errorf("taglessdram: sweep service needs a result cache")
	}
	if maxWorkers < 0 || maxJobs < 0 {
		return nil, fmt.Errorf("taglessdram: sweep service limits must be non-negative")
	}
	if maxJobs == 0 {
		maxJobs = DefaultMaxJobs
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &SweepServer{
		store:      store,
		flight:     resultcache.NewFlight[settled](),
		maxWorkers: maxWorkers,
		maxJobs:    maxJobs,
		start:      time.Now(),
		baseCtx:    ctx,
		cancel:     cancel,
	}
	s.initTelemetry()
	return s, nil
}

// initTelemetry registers the exposition families. Counters the server
// already owns (cache statistics, sweep/job totals) export through
// read-at-scrape closures, so /metrics and /v1/stats can never drift
// apart.
func (s *SweepServer) initTelemetry() {
	reg := telemetry.NewRegistry()
	s.tel.reg = reg
	s.tel.log = telemetry.NewLogger(nil)
	s.tel.traces = telemetry.NewTraceStore(0)

	st := func(pick func(resultcache.Stats) uint64) func() uint64 {
		return func() uint64 { return pick(s.store.Stats()) }
	}
	reg.CounterFunc("sweepd_resultcache_hits_total",
		"Result-cache lookups answered from the store.",
		st(func(c resultcache.Stats) uint64 { return c.Hits }))
	reg.CounterFunc("sweepd_resultcache_misses_total",
		"Result-cache lookups that had to simulate.",
		st(func(c resultcache.Stats) uint64 { return c.Misses }))
	reg.CounterFunc("sweepd_resultcache_stored_total",
		"Results written to the store.",
		st(func(c resultcache.Stats) uint64 { return c.Stored }))
	reg.CounterFunc("sweepd_resultcache_evicted_total",
		"Store entries evicted (stale model version or audit failure).",
		st(func(c resultcache.Stats) uint64 { return c.Evicted }))
	reg.GaugeFunc("sweepd_resultcache_entries",
		"Result-cache entries on disk.",
		func() float64 { return float64(s.store.Len()) })
	reg.CounterFunc("sweepd_sweeps_total",
		"Sweep requests accepted.", s.sweeps.Load)
	reg.CounterFunc("sweepd_jobs_total",
		"Jobs across accepted sweeps.", s.simJobs.Load)
	s.tel.sweepsInflight = reg.Gauge("sweepd_sweeps_inflight",
		"Sweep requests currently streaming.")
	s.tel.jobsInflight = reg.Gauge("sweepd_jobs_inflight",
		"Jobs currently between worker pickup and completion.")
	s.tel.phases = reg.HistogramVec("sweepd_phase_duration_seconds",
		"Wall time per sweep execution phase.", "phase", sweepPhases...)
	s.tel.httpRequests = reg.CounterVec("sweepd_http_requests_total",
		"HTTP requests by route and status class.", "route", "class")
	reg.GaugeFunc("sweepd_model_version",
		"Behavioral generation stamp of the simulator (canonical.go).",
		func() float64 { return float64(modelVersion) })
	reg.GaugeFunc("sweepd_start_time_seconds",
		"Unix time the server started.",
		func() float64 { return float64(s.start.Unix()) })
	reg.GaugeFunc("sweepd_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
}

// SetLogOutput directs the server's structured JSON-lines request log
// (one "http" event per request, one "sweep" event per sweep) to w; nil
// discards. cmd/sweepd points it at stderr.
func (s *SweepServer) SetLogOutput(w io.Writer) { s.tel.log.SetOutput(w) }

// Drain stops accepting new sweeps (they get 503) and blocks until every
// in-flight sweep has finished — the graceful half of shutdown. Safe to
// call more than once.
func (s *SweepServer) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
}

// Cancel hard-cancels every in-flight sweep: queued jobs are skipped,
// running simulations finish, and each stream ends with an error event.
// Pair with Drain to bound shutdown time (second Ctrl-C semantics).
func (s *SweepServer) Cancel() { s.cancel() }

// begin registers an in-flight request, refusing it when draining.
func (s *SweepServer) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// isDraining snapshots the drain flag (for /v1/healthz).
func (s *SweepServer) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// statusRecorder captures the response status for the request counter
// and access log, passing Flush through so event streams still flush
// per line.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusRecorder) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// statusClass renders a status code's exposition class ("2xx", "4xx", ...).
func statusClass(code int) string {
	return fmt.Sprintf("%dxx", code/100)
}

// ServeHTTP implements http.Handler (see internal/sweepapi for the
// protocol). Every request increments the route × status-class counter
// and emits one structured "http" log event.
func (s *SweepServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w}
	began := time.Now()
	route := s.serve(rec, r)
	s.tel.httpRequests.With(route, statusClass(rec.status())).Inc()
	s.tel.log.Event("http",
		telemetry.F("method", r.Method),
		telemetry.F("route", route),
		telemetry.F("status", rec.status()),
		telemetry.F("peer", r.RemoteAddr),
		telemetry.F("duration_ms", time.Since(began).Milliseconds()),
	)
}

// serve dispatches one request and returns its route label.
func (s *SweepServer) serve(w http.ResponseWriter, r *http.Request) string {
	switch r.URL.Path {
	case "/v1/sweep":
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
		} else {
			s.handleSweep(w, r)
		}
	case "/v1/stats":
		s.handleStats(w)
	case "/v1/healthz":
		s.handleHealthz(w)
	case "/v1/sweeps":
		s.handleSweeps(w)
	case "/v1/trace":
		s.handleTrace(w, r)
	case "/metrics":
		s.handleMetrics(w)
	default:
		httpError(w, http.StatusNotFound, "no such endpoint")
		return "other"
	}
	return r.URL.Path
}

// httpError writes a structured sweepapi.ErrorReply.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(sweepapi.ErrorReply{Error: fmt.Sprintf(format, args...)})
}

// parseSweep decodes a POST /v1/sweep body and validates it into jobs
// with buildJobs. It never simulates; every returned error is a client
// error (HTTP 400).
func (s *SweepServer) parseSweep(body io.Reader) (sweepapi.Request, []Job, []jobKey, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req sweepapi.Request
	if err := dec.Decode(&req); err != nil {
		return req, nil, nil, fmt.Errorf("malformed request: %w", err)
	}
	jobs, keys, err := s.buildJobs(&req)
	return req, jobs, keys, err
}

// buildJobs validates a wire request into native jobs (grid cells
// workload-major, then explicit jobs) plus their fingerprints. Every
// returned error is a client error (HTTP 400).
func (s *SweepServer) buildJobs(req *sweepapi.Request) ([]Job, []jobKey, error) {
	if (len(req.Designs) == 0) != (len(req.Workloads) == 0) {
		return nil, nil, fmt.Errorf("designs and workloads must be set together (the grid is their cross product)")
	}
	base, err := decodeOptions(req.Options, DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	var jobs []Job
	for _, wl := range req.Workloads {
		for _, name := range req.Designs {
			d, err := ParseDesign(name)
			if err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, Job{Design: d, Workload: wl, Options: base})
		}
	}
	for i, wj := range req.Jobs {
		d, err := ParseDesign(wj.Design)
		if err != nil {
			return nil, nil, fmt.Errorf("job %d: %w", i, err)
		}
		o, err := decodeOptions(wj.Options, base)
		if err != nil {
			return nil, nil, fmt.Errorf("job %d: %w", i, err)
		}
		jobs = append(jobs, Job{Design: d, Workload: wj.Workload, Options: o})
	}
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("empty sweep: no grid and no jobs")
	}
	if len(jobs) > s.maxJobs {
		return nil, nil, fmt.Errorf("%d jobs exceeds this server's limit of %d", len(jobs), s.maxJobs)
	}
	// Fingerprint every cell up front, once: this validates options and
	// workload names (unknown anything fails here, before any simulation
	// starts), gives the accepted event its content addresses, and hands
	// the sweep core its cache keys.
	keys := make([]jobKey, len(jobs))
	for i := range jobs {
		jobs[i].Options.ResultCache = s.store
		key, pre, err := jobs[i].fingerprint()
		if err != nil {
			return nil, nil, fmt.Errorf("job %d (%s/%v): %w", i, jobs[i].Workload, jobs[i].Design, err)
		}
		keys[i] = jobKey{key, pre}
	}
	return jobs, keys, nil
}

// decodeOptions decodes a wire options object straight into Options.
// Its keys are Options' json names; any other key, including a local
// field's Go name, is an unknown field and a client error. An absent or
// null object yields fallback.
func decodeOptions(raw json.RawMessage, fallback Options) (Options, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return fallback, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var o Options
	if err := dec.Decode(&o); err != nil {
		return Options{}, fmt.Errorf("options: %w", err)
	}
	return o, nil
}

// workers clamps a requested fan-out width to the server's ceiling.
func (s *SweepServer) workers(requested int) int {
	if requested <= 0 {
		return s.maxWorkers
	}
	if s.maxWorkers > 0 && requested > s.maxWorkers {
		return s.maxWorkers
	}
	return requested
}

// sweepCtxHook, when non-nil, receives each accepted sweep's merged
// context (request ∪ server shutdown). Cancel propagates to that context
// through a goroutine, so tests that must observe "the hard cancel has
// reached this sweep" wait on the context itself instead of sleeping.
var sweepCtxHook func(context.Context)

// logSweep emits the one-line structured summary of a finished (or
// refused) sweep.
func (s *SweepServer) logSweep(tr *telemetry.Trace, peer, outcome string, delta CacheStats, err error) {
	sum := tr.Summary()
	fields := []telemetry.Field{
		telemetry.F("sweep_id", sum.ID),
		telemetry.F("peer", peer),
		telemetry.F("jobs", sum.Jobs),
		telemetry.F("workers", sum.Workers),
		telemetry.F("cached", sum.Cached),
		telemetry.F("simulated", sum.Simulated),
		telemetry.F("cache_hits", delta.Hits),
		telemetry.F("cache_misses", delta.Misses),
		telemetry.F("cache_stored", delta.Stored),
		telemetry.F("cache_evicted", delta.Evicted),
		telemetry.F("duration_ms", sum.Duration.Milliseconds()),
		telemetry.F("outcome", outcome),
	}
	if err != nil {
		fields = append(fields, telemetry.F("error", err.Error()))
	}
	s.tel.log.Event("sweep", fields...)
}

// handleSweep runs one sweep request, streaming events as they happen.
func (s *SweepServer) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		w.Header().Set("Retry-After", drainRetryAfter)
		httpError(w, http.StatusServiceUnavailable, "draining")
		s.tel.log.Event("sweep",
			telemetry.F("peer", r.RemoteAddr),
			telemetry.F("outcome", "refused-draining"))
		return
	}
	// Drain waits for the response's last byte, so inflight.Done stays
	// deferred. The gauge drops earlier: leave runs before the
	// response's last write (a 4xx or the terminal event), so a client
	// that has read the end of its response never scrapes its own sweep
	// as in flight. The deferred call covers a panicking handler.
	defer s.inflight.Done()
	s.tel.sweepsInflight.Inc()
	leave := sync.OnceFunc(s.tel.sweepsInflight.Dec)
	defer leave()

	began := time.Now()
	req, jobs, keys, err := s.parseSweep(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		leave()
		httpError(w, http.StatusBadRequest, "%v", err)
		s.tel.log.Event("sweep",
			telemetry.F("peer", r.RemoteAddr),
			telemetry.F("outcome", "invalid"),
			telemetry.F("error", err.Error()))
		return
	}
	fps := make([]string, len(keys))
	for i, k := range keys {
		fps[i] = k.key.String()
	}
	workers := s.workers(req.Workers)
	s.sweeps.Add(1)
	s.simJobs.Add(uint64(len(jobs)))

	// The sweep's span trace: lane 0 holds the sweep-level phases, job i
	// runs in lane i+1. All span timestamps are offsets from `began`.
	id := fmt.Sprintf("s%06d", s.sweepSeq.Add(1))
	tr := telemetry.NewTrace(id, began, len(jobs), workers, r.RemoteAddr)
	s.tel.traces.Add(tr)
	validated := tr.Since()
	s.tel.phases.Observe("validate", validated)
	tr.Add("validate", telemetry.CatSweep, 0, 0, validated)

	// From here on the response is a 200 event stream; failures become
	// error events, not status codes.
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev *sweepapi.Event) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(&sweepapi.Event{
		Type: sweepapi.EventAccepted, SweepID: id,
		Jobs: len(jobs), Workers: workers, Fingerprints: fps,
	})

	// The sweep obeys both the client (disconnects cancel r.Context())
	// and the server's own hard shutdown.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	if sweepCtxHook != nil {
		sweepCtxHook(ctx)
	}

	// The probe timestamps each job's milestones into its trace lane.
	// Slots are written once per index from worker goroutines and read
	// by this goroutine only after sweepRunShared returns.
	runOff := tr.Since()
	starts := make([]time.Duration, len(jobs))
	lookups := make([]time.Duration, len(jobs))
	encodes := make([]time.Duration, len(jobs))
	looked := make([]bool, len(jobs))
	encoded := make([]bool, len(jobs))
	cached := make([]bool, len(jobs))
	probe := &sweepProbe{
		jobStart: func(i int) {
			s.tel.jobsInflight.Inc()
			starts[i] = tr.Since()
			tr.Add("queued", telemetry.CatPhase, i+1, runOff, starts[i])
		},
		jobLookup: func(i int, hit bool) {
			lookups[i] = tr.Since()
			looked[i] = true
			s.tel.phases.Observe("cache-lookup", lookups[i]-starts[i])
			tr.Add("cache-lookup", telemetry.CatPhase, i+1, starts[i], lookups[i])
		},
		jobEncode: func(i int) {
			encodes[i] = tr.Since()
			encoded[i] = true
		},
		jobDone: func(i int, wasCached bool, err error) {
			defer s.tel.jobsInflight.Dec()
			cached[i] = wasCached
			end := tr.Since()
			from := starts[i]
			if looked[i] {
				from = lookups[i]
			}
			if encoded[i] && err == nil {
				// This job encoded the Result it simulated: the encode
				// phase runs from there to the settled (and stored)
				// payload, and the simulation ends where it begins.
				s.tel.phases.Observe("encode", end-encodes[i])
				tr.Add("encode", telemetry.CatPhase, i+1, encodes[i], end)
				end = encodes[i]
			}
			name := "simulate"
			switch {
			case err != nil:
				name = "failed"
			case wasCached:
				name = "cached-hit"
			default:
				s.tel.phases.Observe("simulate", end-from)
			}
			tr.Add(name, telemetry.CatPhase, i+1, from, end)
			tr.JobDone(wasCached && err == nil)
		},
	}

	stats0 := s.store.Stats()
	cacheDelta := func() CacheStats { return s.store.Stats().Sub(stats0) }
	results, err := sweepRunShared(ctx, jobs, sweep.Options{
		Workers: workers,
		OnProgress: func(p sweep.Progress) {
			// Serialized by the sweep engine; the handler goroutine only
			// writes after sweepRunShared returns, so emit never races.
			emit(&sweepapi.Event{
				Type: sweepapi.EventProgress,
				Done: p.Done, Total: p.Total,
				ElapsedMS: p.Elapsed.Milliseconds(),
				ETAMS:     p.ETA.Milliseconds(),
			})
		},
	}, sharedSweep{flight: s.flight, forget: true, keys: keys, payloads: true, probe: probe})
	if err != nil {
		outcome := telemetry.StateError
		if errors.Is(err, context.Canceled) {
			outcome = telemetry.StateCanceled
		}
		tr.Finish(outcome)
		s.logSweep(tr, r.RemoteAddr, outcome, cacheDelta(), err)
		leave()
		emit(&sweepapi.Event{Type: sweepapi.EventError, SweepID: id, Error: err.Error()})
		return
	}
	streamOff := tr.Since()
	for i, res := range results {
		sending := tr.Since()
		emit(&sweepapi.Event{
			Type: sweepapi.EventResult,
			Job:  i, Design: jobs[i].Design.String(), Workload: jobs[i].Workload,
			Fingerprint: fps[i], Cached: cached[i], Result: res.payload,
		})
		sent := tr.Since()
		s.tel.phases.Observe("stream", sent-sending)
		tr.Add("streamed", telemetry.CatPhase, i+1, sending, sent)
		// The job's umbrella span: its whole lifetime in the sweep, from
		// engine start to its result on the wire, colored by how it was
		// answered.
		cat := telemetry.CatSimulated
		if cached[i] {
			cat = telemetry.CatCached
		}
		tr.Add(fmt.Sprintf("%s/%v", jobs[i].Workload, jobs[i].Design), cat, i+1, runOff, sent)
	}
	delta := cacheDelta()
	end := tr.Since()
	tr.Add("stream", telemetry.CatSweep, 0, streamOff, end)
	tr.Add("sweep "+id, telemetry.CatSweep, 0, 0, end)
	tr.Finish(telemetry.StateOK)
	s.logSweep(tr, r.RemoteAddr, telemetry.StateOK, delta, nil)
	// The terminal event goes out last, so a client that has read it
	// finds the sweep's log line written, its trace finished and the
	// in-flight gauge released.
	leave()
	emit(&sweepapi.Event{Type: sweepapi.EventDone, SweepID: id, Cache: &delta})
}

// statsReply snapshots the service statistics.
func (s *SweepServer) statsReply() sweepapi.StatsReply {
	return sweepapi.StatsReply{
		Cache:          s.store.Stats(),
		Entries:        s.store.Len(),
		Sweeps:         s.sweeps.Load(),
		SimJobs:        s.simJobs.Load(),
		ModelVersion:   modelVersion,
		Start:          s.start.UTC().Format(time.RFC3339),
		UptimeMS:       time.Since(s.start).Milliseconds(),
		InFlightSweeps: int(s.tel.sweepsInflight.Value()),
		InFlightJobs:   int(s.tel.jobsInflight.Value()),
	}
}

// handleStats serves the lifetime statistics snapshot.
func (s *SweepServer) handleStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statsReply())
}

// handleHealthz serves liveness plus the service identity block; a
// draining server answers 503 with a Retry-After so well-behaved
// clients back off.
func (s *SweepServer) handleHealthz(w http.ResponseWriter) {
	hr := sweepapi.HealthReply{
		Status:       "ok",
		ModelVersion: modelVersion,
		Start:        s.start.UTC().Format(time.RFC3339),
		UptimeMS:     time.Since(s.start).Milliseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	if s.isDraining() {
		hr.Status = "draining"
		w.Header().Set("Retry-After", drainRetryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(hr)
}

// handleMetrics serves the Prometheus text exposition.
func (s *SweepServer) handleMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.reg.WriteProm(w)
}

// handleSweeps lists the retained recent sweeps, newest first.
func (s *SweepServer) handleSweeps(w http.ResponseWriter) {
	sums := s.tel.traces.Summaries()
	reply := sweepapi.SweepsReply{Sweeps: make([]sweepapi.SweepSummary, len(sums))}
	for i, sm := range sums {
		reply.Sweeps[i] = sweepapi.SweepSummary{
			ID: sm.ID, State: sm.State, Peer: sm.Peer,
			Jobs: sm.Jobs, Done: sm.Done,
			Cached: sm.Cached, Simulated: sm.Simulated,
			Workers:    sm.Workers,
			Start:      sm.Begun.UTC().Format(time.RFC3339),
			DurationMS: sm.Duration.Milliseconds(),
			Spans:      sm.Spans,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// handleTrace serves one sweep's span timeline as Chrome trace_event
// JSON (?sweep=ID; omitted = the most recent sweep).
func (s *SweepServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("sweep")
	var tr *telemetry.Trace
	var ok bool
	if id == "" {
		tr, ok = s.tel.traces.Latest()
	} else {
		tr, ok = s.tel.traces.Get(id)
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no trace for sweep %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteChrome(w)
}
