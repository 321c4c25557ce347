// Package sweepapi defines the wire protocol of the sweep service
// (cmd/sweepd): the JSON request that names an experiment grid and the
// JSON-lines event stream the server answers with. It is pure data.
// Options travel as a raw JSON object whose keys are the json tags of
// taglessdram.Options (for example "shift", "walk_model", "policy"):
// clients send Options.Canonical(), and the server decodes the object
// straight into Options, rejecting unknown keys. No second copy of the
// option set lives here, so the wire cannot drift from the cache key.
//
// Protocol summary:
//
//	POST /v1/sweep   body: Request        → 200 + JSON-lines Event stream
//	                                      → 4xx/5xx + {"error": "..."}
//	GET  /v1/stats                        → StatsReply
//	GET  /v1/healthz                      → 200 | 503 + HealthReply
//	GET  /v1/sweeps                       → SweepsReply (recent sweeps)
//	GET  /v1/trace?sweep=ID               → Chrome trace_event JSON
//	GET  /metrics                         → Prometheus text exposition
//
// A sweep response streams one Event per line: one "accepted" (carrying
// the server-assigned sweep ID, the handle for /v1/trace), then
// interleaved "progress" events as jobs complete, then — on success —
// one "result" per job in submission order followed by one "done", or a
// single terminal "error". Result payloads are the result cache's own
// flat result image (base64 inside JSON), so a decoded result is
// bit-identical to what an in-process run would have produced. A cached
// cell's result is the payload stored in the server's result cache,
// byte for byte: the server verifies the entry but never decodes or
// re-encodes it, and a fresh cell's result is the same bytes the server
// stored for it. 503s from a draining server carry a Retry-After header
// (seconds). Cache counters travel as resultcache.Stats, whose json
// names are the wire's.
package sweepapi

import (
	"encoding/json"

	"taglessdram/internal/resultcache"
)

// Job names one cell of a sweep: a design, a workload, and optionally
// its own options (defaulting to the request-level options).
type Job struct {
	// Design is the organization name as the CLIs spell it:
	// NoL3 | BI | SRAM | cTLB | Ideal | Alloy | Banshee.
	Design string `json:"design"`
	// Workload is a SPEC program, MIX1-MIX8, or a PARSEC program.
	Workload string `json:"workload"`
	// Options overrides the request-level options for this job only.
	Options json.RawMessage `json:"options,omitempty"`
}

// Request is the body of POST /v1/sweep: a design × workload grid,
// explicit extra cells, or both.
type Request struct {
	// Designs × Workloads is the grid sugar: every pairing becomes one
	// job (workload-major, matching the in-process figure runners).
	Designs   []string `json:"designs,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// Options are the base simulation options for grid cells and for
	// explicit jobs that carry none. Omitted = the server's defaults
	// (taglessdram.DefaultOptions).
	Options json.RawMessage `json:"options,omitempty"`
	// Jobs appends explicit cells after the grid, in order.
	Jobs []Job `json:"jobs,omitempty"`
	// Workers bounds concurrent simulations for this sweep; 0 means the
	// server's default. The server clamps it to its own -j ceiling.
	Workers int `json:"workers,omitempty"`
}

// Event types streamed by POST /v1/sweep.
const (
	EventAccepted = "accepted"
	EventProgress = "progress"
	EventResult   = "result"
	EventError    = "error"
	EventDone     = "done"
)

// Event is one line of a sweep response stream. Type selects which of
// the optional field groups is populated.
type Event struct {
	Type string `json:"type"`

	// accepted: the validated sweep as the server will run it. SweepID
	// is the server-assigned trace handle (GET /v1/trace?sweep=ID); it
	// is echoed on the terminal done/error event so clients can
	// correlate even a stream they joined late.
	SweepID      string   `json:"sweep_id,omitempty"`
	Jobs         int      `json:"jobs,omitempty"`
	Workers      int      `json:"workers,omitempty"`
	Fingerprints []string `json:"fingerprints,omitempty"`

	// progress: jobs completed so far (Done of Total), wall time and
	// extrapolated remaining time, both in milliseconds.
	Done      int   `json:"done,omitempty"`
	Total     int   `json:"total,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	ETAMS     int64 `json:"eta_ms,omitempty"`

	// result: one job's completed simulation. Result is the result
	// cache's payload, the flat result image resultcache.Decode reads
	// (encoding/json base64-codes []byte); for a cached job it is the
	// stored entry's payload as it is. Cached reports
	// that the job was answered without simulating (a store hit or a
	// deduplicated duplicate).
	Job         int    `json:"job,omitempty"`
	Design      string `json:"design,omitempty"`
	Workload    string `json:"workload,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Cached      bool   `json:"cached,omitempty"`
	Result      []byte `json:"result,omitempty"`

	// error: the sweep failed; the stream ends here.
	Error string `json:"error,omitempty"`

	// done: the sweep finished. Cache is the server store's counter
	// delta over this request (approximate under concurrent requests,
	// exact when the server is serving one sweep at a time).
	Cache *resultcache.Stats `json:"cache,omitempty"`
}

// StatsReply is the body of GET /v1/stats: the store's lifetime
// counters, the number of entries on disk, the service's own request
// counters, and the service identity block (behavioral model version,
// start time, uptime, in-flight gauges).
type StatsReply struct {
	Cache   resultcache.Stats `json:"cache"`
	Entries int               `json:"entries"`
	Sweeps  uint64            `json:"sweeps"`
	SimJobs uint64            `json:"jobs"`
	// ModelVersion is the canonical.go stamp: results from servers with
	// different stamps are not comparable (their fingerprints differ).
	ModelVersion int `json:"model_version"`
	// Start is the server's start time (RFC 3339, UTC); UptimeMS the
	// milliseconds since.
	Start    string `json:"start_time"`
	UptimeMS int64  `json:"uptime_ms"`
	// In-flight gauges: sweeps currently streaming, jobs currently
	// queued or simulating.
	InFlightSweeps int `json:"inflight_sweeps"`
	InFlightJobs   int `json:"inflight_jobs"`
}

// HealthReply is the body of GET /v1/healthz — HTTP 200 while serving,
// 503 (with a Retry-After header) while draining.
type HealthReply struct {
	Status       string `json:"status"` // "ok" | "draining"
	ModelVersion int    `json:"model_version"`
	Start        string `json:"start_time"`
	UptimeMS     int64  `json:"uptime_ms"`
}

// SweepSummary is one recent sweep in GET /v1/sweeps: identity,
// progress, and the cached/simulated split. DurationMS keeps growing
// while State is "running".
type SweepSummary struct {
	ID         string `json:"id"`
	State      string `json:"state"` // running | ok | error | canceled
	Peer       string `json:"peer,omitempty"`
	Jobs       int    `json:"jobs"`
	Done       int    `json:"done"`
	Cached     int    `json:"cached"`
	Simulated  int    `json:"simulated"`
	Workers    int    `json:"workers"`
	Start      string `json:"start_time"`
	DurationMS int64  `json:"duration_ms"`
	Spans      int    `json:"spans"`
}

// SweepsReply is the body of GET /v1/sweeps, newest sweep first.
type SweepsReply struct {
	Sweeps []SweepSummary `json:"sweeps"`
}

// ErrorReply is the body of every non-200 response.
type ErrorReply struct {
	Error string `json:"error"`
}
