package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanKnownValues(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(x)
	}
	if got := m.Value(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	if m.Count() != 8 {
		t.Errorf("count = %d, want 8", m.Count())
	}
	if got := m.Sum(); math.Abs(got-40) > 1e-9 {
		t.Errorf("sum = %v, want 40", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.Count() != 0 || m.Sum() != 0 {
		t.Fatal("empty mean should report zeros")
	}
}

func TestMeanReset(t *testing.T) {
	var m Mean
	m.Observe(10)
	m.Reset()
	if m.Count() != 0 || m.Value() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: mean is always bounded by [min, max] of the observed samples.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow.
			if math.Abs(x) > 1e12 {
				continue
			}
			m.Observe(x)
			n++
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if n == 0 {
			return m.Value() == 0
		}
		v := m.Value()
		const eps = 1e-6
		return v >= lo-eps*(1+math.Abs(lo)) && v <= hi+eps*(1+math.Abs(hi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
	// Non-positive entries are skipped.
	if got := GeoMean([]float64{0, -1, 9}); math.Abs(got-9) > 1e-12 {
		t.Errorf("geomean with skips = %v, want 9", got)
	}
}

func TestRatioPooledValue(t *testing.T) {
	var r Ratio
	if r.Value() != 0 || r.CI95() != 0 {
		t.Fatal("zero value should report 0 estimate and 0 CI")
	}
	// Pairs with a common true ratio of 2 but varying denominators: the
	// pooled estimate is exactly 2 and the residual variance is zero.
	for _, x := range []float64{1, 3, 10, 0.5} {
		r.Observe(2*x, x)
	}
	if got := r.Value(); got != 2 {
		t.Fatalf("Value() = %v, want 2", got)
	}
	if got := r.CI95(); got != 0 {
		t.Fatalf("CI95() on exact-fit pairs = %v, want 0", got)
	}
	if r.Count() != 4 {
		t.Fatalf("Count() = %d, want 4", r.Count())
	}
	r.Reset()
	if r.Count() != 0 || r.Value() != 0 {
		t.Fatal("Reset() did not clear the accumulator")
	}
}

func TestRatioBeatsMeanOfRatios(t *testing.T) {
	// Fixed numerator, varying denominator — the setting where the mean
	// of per-pair ratios is Jensen-biased above the pooled ratio, which
	// is the quantity an uninterrupted run would report.
	var r Ratio
	var m Mean
	ys := []float64{100, 100, 100, 100}
	xs := []float64{40, 60, 50, 70}
	var sy, sx float64
	for i := range ys {
		r.Observe(ys[i], xs[i])
		m.Observe(ys[i] / xs[i])
		sy += ys[i]
		sx += xs[i]
	}
	want := sy / sx
	if got := r.Value(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Value() = %v, want pooled %v", got, want)
	}
	if m.Value() <= r.Value() {
		t.Fatalf("mean of ratios %v should exceed pooled ratio %v on varying denominators", m.Value(), r.Value())
	}
	if ci := r.CI95(); ci <= 0 {
		t.Fatalf("CI95() = %v, want positive on noisy pairs", ci)
	}
}
