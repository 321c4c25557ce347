// Command sweeptop is a live terminal watcher for a sweepd sweep
// service (cmd/sweepd): it polls GET /metrics and GET /v1/stats on an
// interval and renders sweep/job throughput, cache hit rate and
// per-phase latency — with sparkline history — plus the server's recent
// sweeps from GET /v1/sweeps. Think `top`, but for a simulation
// backend.
//
//	sweeptop -server http://localhost:8344
//	sweeptop -server http://localhost:8344 -interval 5s -n 3 -plain
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"taglessdram"
	"taglessdram/internal/lat"
	"taglessdram/internal/sweepapi"
	"taglessdram/internal/telemetry"
	"taglessdram/internal/textplot"
)

// historyLen bounds the sparkline history (one point per poll).
const historyLen = 60

const metricPrefix = "sweepd_"

// snapshot is one poll of the server's telemetry surface.
type snapshot struct {
	at      time.Time
	stats   taglessdram.ServerStats
	samples []telemetry.Sample
	sweeps  []sweepapi.SweepSummary
}

func main() {
	server := flag.String("server", "http://localhost:8344", "sweepd base URL")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	n := flag.Int("n", 0, "number of polls before exiting (0 = until interrupted)")
	plain := flag.Bool("plain", false, "append frames instead of redrawing in place (for logs/pipes)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var jobRate, hitRate []float64
	var prev *snapshot
	for i := 0; *n == 0 || i < *n; i++ {
		snap, err := poll(ctx, *server)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fmt.Fprintln(os.Stderr, "sweeptop:", err)
			os.Exit(1)
		}
		jobRate = push(jobRate, jobsPerSec(prev, snap))
		hitRate = push(hitRate, hitPct(prev, snap))
		frame := render(*server, snap, jobRate, hitRate)
		if !*plain {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear screen
		}
		fmt.Print(frame)
		prev = snap
		if *n != 0 && i == *n-1 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(*interval):
		}
	}
}

func push(hist []float64, v float64) []float64 {
	hist = append(hist, v)
	if len(hist) > historyLen {
		hist = hist[len(hist)-historyLen:]
	}
	return hist
}

// poll scrapes /metrics, /v1/stats and /v1/sweeps.
func poll(ctx context.Context, server string) (*snapshot, error) {
	snap := &snapshot{at: time.Now()}
	var err error
	if snap.stats, err = taglessdram.RemoteStats(ctx, server); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(server, "/")+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d from /metrics", resp.StatusCode)
	}
	if snap.samples, err = telemetry.ParseProm(resp.Body); err != nil {
		return nil, err
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(server, "/")+"/v1/sweeps", nil)
	if err != nil {
		return nil, err
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp2.Body.Close()
	var sr sweepapi.SweepsReply
	if err := json.NewDecoder(resp2.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("decoding /v1/sweeps: %w", err)
	}
	snap.sweeps = sr.Sweeps
	return snap, nil
}

// jobsPerSec is the rate of result-cache lookups (hits + misses from
// /v1/stats) between two polls: every cell the server answers from its
// store or simulates afresh counts once, while a cell deduplicated
// against an in-flight twin, which never reaches the store, does not.
func jobsPerSec(prev, cur *snapshot) float64 {
	if prev == nil {
		return 0
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0
	}
	dj := float64(cur.stats.Hits+cur.stats.Misses) - float64(prev.stats.Hits+prev.stats.Misses)
	if dj < 0 {
		dj = 0
	}
	return dj / dt
}

// hitPct is the cache hit percentage over the delta between two polls
// (lifetime percentage for the first).
func hitPct(prev, cur *snapshot) float64 {
	h, m := float64(cur.stats.Hits), float64(cur.stats.Misses)
	if prev != nil {
		h -= float64(prev.stats.Hits)
		m -= float64(prev.stats.Misses)
	}
	if h+m <= 0 {
		return math.NaN()
	}
	return 100 * h / (h + m)
}

// phaseQuantiles rebuilds a phase's log2 bucket counts from the scraped
// histogram and returns its p50/p99 in seconds, by lat.QuantileOf, the
// rule the simulator's own latency tails use.
func phaseQuantiles(samples []telemetry.Sample, phase string) (p50, p99 float64, count uint64, ok bool) {
	counts, ok := telemetry.HistCounts(samples, metricPrefix+"phase_duration_seconds", telemetry.Label{Name: "phase", Value: phase})
	for _, c := range counts {
		count += c
	}
	if !ok || count == 0 {
		return 0, 0, count, false
	}
	return lat.QuantileOf(&counts, 50) / 1e6, lat.QuantileOf(&counts, 99) / 1e6, count, true
}

func render(server string, snap *snapshot, jobRate, hitRate []float64) string {
	var b strings.Builder
	st := snap.stats
	fmt.Fprintf(&b, "sweeptop — %s   model %d   up %s   cache entries %d\n",
		server, st.ModelVersion, st.Uptime.Round(time.Second), st.Entries)
	fmt.Fprintf(&b, "sweeps: %d total, %d in flight    jobs: %d total, %d in flight\n",
		st.Sweeps, st.InFlightSweeps, st.Jobs, st.InFlightJobs)
	total := st.Hits + st.Misses
	pct := math.NaN()
	if total > 0 {
		pct = 100 * float64(st.Hits) / float64(total)
	}
	fmt.Fprintf(&b, "cache:  hits %d (%s lifetime)  misses %d  stored %d  evicted %d\n\n",
		st.Hits, fmtPct(pct), st.Misses, st.Stored, st.Evicted)

	fmt.Fprintf(&b, "jobs/s    %8.2f  %s\n", last(jobRate), textplot.Sparkline(jobRate, historyLen))
	fmt.Fprintf(&b, "hit rate  %8s  %s\n\n", fmtPct(last(hitRate)), textplot.Sparkline(nanToZero(hitRate), historyLen))

	fmt.Fprintf(&b, "phase latency (lifetime)   p50        p99        count\n")
	for _, phase := range []string{"validate", "cache-lookup", "simulate", "encode", "stream"} {
		p50, p99, count, ok := phaseQuantiles(snap.samples, phase)
		if !ok {
			fmt.Fprintf(&b, "  %-24s %-10s %-10s %d\n", phase, "-", "-", count)
			continue
		}
		fmt.Fprintf(&b, "  %-24s %-10s %-10s %d\n", phase,
			fmtDur(p50), fmtDur(p99), count)
	}
	if len(snap.sweeps) > 0 {
		fmt.Fprintf(&b, "\nrecent sweeps\n")
		max := len(snap.sweeps)
		if max > 8 {
			max = 8
		}
		for _, sw := range snap.sweeps[:max] {
			fmt.Fprintf(&b, "  %-10s %-9s %4d jobs  %4d cached / %-4d simulated  %8s  %s\n",
				sw.ID, sw.State, sw.Jobs, sw.Cached, sw.Simulated,
				(time.Duration(sw.DurationMS) * time.Millisecond).Round(time.Millisecond), sw.Peer)
		}
	}
	return b.String()
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}

func nanToZero(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		if !math.IsNaN(v) {
			out[i] = v
		}
	}
	return out
}

func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v)
}

func fmtDur(seconds float64) string {
	if math.IsNaN(seconds) {
		return "-"
	}
	return time.Duration(seconds * float64(time.Second)).Round(10 * time.Microsecond).String()
}
