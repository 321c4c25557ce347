package taglessdram

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"taglessdram/internal/resultcache"
	"taglessdram/internal/sweepapi"
)

// ParseDesign resolves an organization by the name its String() renders
// (NoL3, BI, SRAM, cTLB, Ideal, Alloy, Banshee), case-insensitively.
// It is the inverse of Design.String, shared by the CLIs and the sweep
// service's request validation.
func ParseDesign(name string) (Design, error) {
	names := make([]string, 0, 8)
	for _, d := range Organizations() {
		if strings.EqualFold(d.String(), name) {
			return d, nil
		}
		names = append(names, d.String())
	}
	return 0, fmt.Errorf("taglessdram: unknown design %q (want %s)", name, strings.Join(names, ", "))
}

// remoteSubmittable rejects job options a sweep service cannot honor:
// checkpoint files and in-memory checkpoint stores name server-local
// state, and kernel-event traces need the simulation to run in-process.
func remoteSubmittable(o Options) error {
	if o.quiesced() {
		return fmt.Errorf("taglessdram: checkpoint options cannot be submitted to a sweep service")
	}
	if o.TraceEvents != nil {
		return fmt.Errorf("taglessdram: kernel-event tracing cannot be submitted to a sweep service")
	}
	return nil
}

// RemoteSweep submits jobs to a sweepd sweep service at the given base
// URL and returns one Result per job in submission order — byte-identical
// to what Sweep would have produced in-process, because results travel as
// the result cache's own encoding. The sweep-level Options supply the
// requested fan-out width (Workers, clamped by the server) and the
// Progress callback, which is fed from the server's streamed progress
// events. Cancelling ctx aborts the request; the server then skips that
// sweep's queued jobs.
func RemoteSweep(ctx context.Context, server string, jobs []Job, o Options) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	req := sweepapi.Request{Workers: o.Workers, Jobs: make([]sweepapi.Job, len(jobs))}
	for i, j := range jobs {
		if err := remoteSubmittable(j.Options); err != nil {
			return nil, fmt.Errorf("%s/%v: %w", j.Workload, j.Design, err)
		}
		canon, err := j.Options.Canonical()
		if err != nil {
			return nil, fmt.Errorf("%s/%v: %w", j.Workload, j.Design, err)
		}
		req.Jobs[i] = sweepapi.Job{
			Design:   j.Design.String(),
			Workload: j.Workload,
			Options:  canon,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("taglessdram: encoding sweep request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(server, "/")+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("taglessdram: sweep service: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("taglessdram: sweep service: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er sweepapi.ErrorReply
		if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
			return nil, fmt.Errorf("taglessdram: sweep service: %s (HTTP %d)", er.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("taglessdram: sweep service: HTTP %d", resp.StatusCode)
	}

	results := make([]*Result, len(jobs))
	dec := json.NewDecoder(resp.Body)
	done := false
	for !done {
		var ev sweepapi.Event
		if err := dec.Decode(&ev); err != nil {
			// Distinguish a caller cancellation from a truncated stream
			// (server died mid-sweep): the context error is the real cause.
			if cerr := ctx.Err(); cerr != nil {
				return results, cerr
			}
			return results, fmt.Errorf("taglessdram: sweep service: stream ended early: %w", err)
		}
		switch ev.Type {
		case sweepapi.EventAccepted:
			if ev.Jobs != len(jobs) {
				return results, fmt.Errorf("taglessdram: sweep service accepted %d jobs, submitted %d", ev.Jobs, len(jobs))
			}
			if o.OnSweepAccepted != nil {
				o.OnSweepAccepted(SweepAccepted{
					SweepID: ev.SweepID, Jobs: ev.Jobs, Workers: ev.Workers,
				})
			}
		case sweepapi.EventProgress:
			if o.Progress != nil {
				o.Progress(SweepProgress{
					Done:    ev.Done,
					Total:   ev.Total,
					Elapsed: time.Duration(ev.ElapsedMS) * time.Millisecond,
					ETA:     time.Duration(ev.ETAMS) * time.Millisecond,
				})
			}
		case sweepapi.EventResult:
			if ev.Job < 0 || ev.Job >= len(jobs) {
				return results, fmt.Errorf("taglessdram: sweep service: result for unknown job %d", ev.Job)
			}
			r, err := resultcache.Decode(ev.Result)
			if err != nil {
				return results, fmt.Errorf("taglessdram: sweep service: decoding job %d result: %w", ev.Job, err)
			}
			results[ev.Job] = r
		case sweepapi.EventError:
			return results, fmt.Errorf("%s", ev.Error)
		case sweepapi.EventDone:
			done = true
		default:
			return results, fmt.Errorf("taglessdram: sweep service: unknown event type %q", ev.Type)
		}
	}
	for i, r := range results {
		if r == nil {
			return results, fmt.Errorf("taglessdram: sweep service: no result for job %d (%s/%v)",
				i, jobs[i].Workload, jobs[i].Design)
		}
	}
	return results, nil
}

// SweepAccepted is the Options.OnSweepAccepted payload: the sweep
// service's acknowledgement of a submitted grid. SweepID is the
// server-assigned handle for the sweep's span trace (RemoteTrace,
// GET /v1/trace?sweep=ID).
type SweepAccepted struct {
	SweepID string
	Jobs    int
	Workers int
}

// ServerStats is a sweep service's GET /v1/stats snapshot: the result
// cache's lifetime counters and entry count, the service's own request
// counters, and its identity block (behavioral model version, start
// time/uptime, in-flight gauges).
type ServerStats struct {
	CacheStats
	Entries      int
	Sweeps, Jobs uint64

	ModelVersion                 int
	Start                        time.Time
	Uptime                       time.Duration
	InFlightSweeps, InFlightJobs int
}

// RemoteStats fetches a sweep service's statistics snapshot.
func RemoteStats(ctx context.Context, server string) (ServerStats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(server, "/")+"/v1/stats", nil)
	if err != nil {
		return ServerStats{}, fmt.Errorf("taglessdram: sweep service: %w", err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return ServerStats{}, fmt.Errorf("taglessdram: sweep service: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ServerStats{}, fmt.Errorf("taglessdram: sweep service: HTTP %d from /v1/stats", resp.StatusCode)
	}
	var sr sweepapi.StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return ServerStats{}, fmt.Errorf("taglessdram: sweep service: decoding /v1/stats: %w", err)
	}
	st := ServerStats{
		CacheStats:     sr.Cache,
		Entries:        sr.Entries,
		Sweeps:         sr.Sweeps,
		Jobs:           sr.SimJobs,
		ModelVersion:   sr.ModelVersion,
		Uptime:         time.Duration(sr.UptimeMS) * time.Millisecond,
		InFlightSweeps: sr.InFlightSweeps,
		InFlightJobs:   sr.InFlightJobs,
	}
	if sr.Start != "" {
		if t, err := time.Parse(time.RFC3339, sr.Start); err == nil {
			st.Start = t
		}
	}
	return st, nil
}

// RemoteTrace fetches one sweep's span timeline from a sweep service as
// raw Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto). sweepID comes from Options.OnSweepAccepted; "" returns the
// server's most recent sweep.
func RemoteTrace(ctx context.Context, server, sweepID string) ([]byte, error) {
	u := strings.TrimSuffix(server, "/") + "/v1/trace"
	if sweepID != "" {
		u += "?sweep=" + url.QueryEscape(sweepID)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("taglessdram: sweep service: %w", err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("taglessdram: sweep service: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("taglessdram: sweep service: HTTP %d from /v1/trace", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("taglessdram: sweep service: reading /v1/trace: %w", err)
	}
	return raw, nil
}
