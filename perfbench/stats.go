package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"taglessdram"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goRuntime snapshots the Go runtime counters behind the go.* rows.
type goRuntime struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goRuntime
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.allCPU = s[2].Value.Float64()
	}
	return g
}

// window brackets a timed region: wall clock, process CPU and Go runtime
// counters.
type window struct {
	start time.Time
	cpu0  time.Duration
	rt0   goRuntime
}

func openWindow() window {
	runtime.GC()
	return window{start: time.Now(), cpu0: processCPU(), rt0: readGoRuntime()}
}

// segmenter cuts the window into segments at mark calls.
type segmenter struct {
	at   time.Time
	cpu  time.Duration
	jobs int
}

func newSegmenter() *segmenter { return &segmenter{at: time.Now(), cpu: processCPU()} }

// mark closes the segment that ended now, at a cumulative job count.
func (s *segmenter) mark(m *measured, jobs int) {
	now, cpu := time.Now(), processCPU()
	m.segments = append(m.segments, segment{jobs - s.jobs, now.Sub(s.at), cpu - s.cpu})
	s.at, s.cpu, s.jobs = now, cpu, jobs
}

// close fills the window's wall and CPU totals into m and records the
// runtime deltas as extras.
func (w window) close(m *measured) {
	m.wall = time.Since(w.start)
	m.cpu = processCPU() - w.cpu0
	m.rss = peakRSSMB()
	rt := readGoRuntime()
	if m.extra == nil {
		m.extra = map[string]float64{}
	}
	if m.jobs > 0 {
		m.extra["go.alloc_mb_per_job"] = float64(rt.allocBytes-w.rt0.allocBytes) / (1 << 20) / float64(m.jobs)
	}
	if d := rt.allCPU - w.rt0.allCPU; d > 0 {
		m.extra["go.gc_cpu_frac"] = (rt.gcCPU - w.rt0.gcCPU) / d
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailIndex is the rank of the highest percentile that still has at least
// ten samples beyond it; short series fall back to their maximum.
func tailIndex(n int) int {
	if n > 10 {
		return n - 11
	}
	return n - 1
}

// callStats reports the median and tail (ms) of a latency series, the
// tail's percentile and the sample count.
func callStats(ds []time.Duration) (p50, tail, pct float64, n int) {
	n = len(ds)
	if n == 0 {
		return 0, 0, 0, 0
	}
	xs := make([]float64, n)
	for i, d := range ds {
		xs[i] = ms(d)
	}
	sort.Float64s(xs)
	k := tailIndex(n)
	return median(xs), xs[k], 100 * float64(k+1) / float64(n), n
}

// resultDigest fingerprints a Result through its documented
// byte-identical export (the metrics JSON line).
func resultDigest(r *taglessdram.Result) (string, error) {
	var buf bytes.Buffer
	if err := taglessdram.WriteMetricsJSON(&buf, r); err != nil {
		return "", err
	}
	return digestBytes(buf.Bytes()), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// rowsDigest fingerprints a runner's typed rows.
func rowsDigest(rows any) string {
	return digestBytes([]byte(fmt.Sprintf("%+v", rows)))
}

// finite reports whether every float in xs is a real number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
