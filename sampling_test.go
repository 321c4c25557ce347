package taglessdram_test

import (
	"math"
	"testing"

	"taglessdram"
)

// sampledErrorBound is the documented accuracy contract of sampled mode
// (README "Sampled simulation & checkpoints"): on the validated
// configurations the sampled IPC estimate lands within 2% of the
// uninterrupted full run's IPC. The bound absorbs both sampling error
// (quantified by the reported CI) and the fast-forward path's systematic
// state staleness.
const sampledErrorBound = 0.02

// TestSampledAccuracy is the sampled-vs-full harness: for each validated
// workload it runs the measured phase twice — once fully cycle-accurate,
// once sampled — and asserts (a) the sampled IPC estimate falls within
// the documented error bound of the full run, and (b) the reported 95%
// confidence interval covers the full-run value, i.e. the CI is an
// honest statement about the quantity it accompanies, not just a
// tightness claim about the window population.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-instruction accuracy runs")
	}
	spec := &taglessdram.SampleSpec{WindowRefs: 2000, WarmRefs: 1000, PeriodRefs: 10000}
	for _, wl := range []string{"sphinx3", "mcf"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			o := taglessdram.DefaultOptions()
			o.Warmup, o.Measure = 2_000_000, 20_000_000

			full, err := taglessdram.Run(taglessdram.Tagless, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			o.Sample = spec
			sampled, err := taglessdram.Run(taglessdram.Tagless, wl, o)
			if err != nil {
				t.Fatal(err)
			}
			s := sampled.Sampled
			if s == nil {
				t.Fatal("sampled run carries no SampledInfo")
			}
			if s.IPC != sampled.IPC {
				t.Errorf("SampledInfo.IPC %v != Result.IPC %v", s.IPC, sampled.IPC)
			}
			if s.Windows < 100 {
				t.Errorf("only %d windows measured; the CI needs a population", s.Windows)
			}
			if s.FastRefs < 2*s.MeasuredRefs {
				t.Errorf("fast-forward covered %d refs vs %d accurate; sampling is not skipping work",
					s.FastRefs, s.MeasuredRefs)
			}
			relErr := math.Abs(s.IPC-full.IPC) / full.IPC
			t.Logf("full IPC %.4f, sampled %.4f ± %.4f (%d windows): error %.2f%%",
				full.IPC, s.IPC, s.IPCCI95, s.Windows, relErr*100)
			if relErr > sampledErrorBound {
				t.Errorf("sampled IPC %.4f deviates %.2f%% from full-run %.4f (bound %.0f%%)",
					s.IPC, relErr*100, full.IPC, sampledErrorBound*100)
			}
			if math.Abs(s.IPC-full.IPC) > s.IPCCI95 {
				t.Errorf("95%% CI [%.4f, %.4f] does not cover the full-run IPC %.4f",
					s.IPC-s.IPCCI95, s.IPC+s.IPCCI95, full.IPC)
			}
		})
	}
}
