// Package stats provides the simulator's estimators: a running mean, the
// ratio-of-sums estimator sampled simulation reports IPC with, and the
// geometric mean of normalized results. Histograms and quantiles live in
// internal/lat, named metric sets in Result.Metrics and
// internal/telemetry.
//
// All types have useful zero values and are safe for single-goroutine use;
// the simulator kernel is single-threaded by design (deterministic event
// ordering), so no locking is performed.
package stats

import "math"

// Mean accumulates a running arithmetic mean, updated incrementally
// (Welford's mean step). The goldens pin results derived from it bit for
// bit, so the update's arithmetic must not change.
type Mean struct {
	n    uint64
	mean float64
}

// Observe records one sample.
func (m *Mean) Observe(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// Count returns the number of samples observed.
func (m *Mean) Count() uint64 { return m.n }

// Value returns the arithmetic mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.mean
}

// Sum returns mean multiplied by count.
func (m *Mean) Sum() float64 { return m.mean * float64(m.n) }

// Reset discards all samples.
func (m *Mean) Reset() { *m = Mean{} }

// Ratio accumulates a streaming ratio-of-sums estimator R = Σy/Σx over
// observation pairs, with a linearized (delta-method) variance. It is
// the right CI for rate-like quantities — IPC is instructions/cycles —
// where the naive mean of per-window ratios is Jensen-biased high
// whenever the denominator varies across windows: E[y/x] ≥ E[y]/E[x].
// The pooled ratio matches what an uninterrupted run would report, and
// the classical survey-sampling variance for it is built from the
// residuals d_i = y_i − R·x_i.
type Ratio struct {
	n             uint64
	sy, sx        float64
	syy, sxx, sxy float64
}

// Observe records one (numerator, denominator) pair.
func (r *Ratio) Observe(y, x float64) {
	r.n++
	r.sy += y
	r.sx += x
	r.syy += y * y
	r.sxx += x * x
	r.sxy += x * y
}

// Count returns the number of pairs observed.
func (r *Ratio) Count() uint64 { return r.n }

// Value returns Σy/Σx, or 0 with no mass in the denominator.
func (r *Ratio) Value() float64 {
	if r.sx == 0 {
		return 0
	}
	return r.sy / r.sx
}

// CI95 returns the half-width of the 95% confidence interval on the
// pooled ratio under the normal approximation:
// 1.96·s_d/(√n·x̄) with s_d² = Σ(y_i−R·x_i)²/(n−1). It is 0 with fewer
// than two pairs.
func (r *Ratio) CI95() float64 {
	if r.n < 2 || r.sx == 0 {
		return 0
	}
	R := r.sy / r.sx
	sd2 := (r.syy - 2*R*r.sxy + R*R*r.sxx) / float64(r.n-1)
	if sd2 < 0 { // floating-point cancellation on near-exact fits
		sd2 = 0
	}
	xbar := r.sx / float64(r.n)
	return 1.96 * math.Sqrt(sd2/float64(r.n)) / xbar
}

// Reset discards all pairs.
func (r *Ratio) Reset() { *r = Ratio{} }

// GeoMean returns the geometric mean of xs. Non-positive values are skipped,
// matching the convention used for normalized performance numbers.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
