package system

import (
	"fmt"

	"taglessdram/internal/sim"
	"taglessdram/internal/stats"
)

// SampleSpec configures SMARTS-style sampled simulation: short
// cycle-accurate measurement windows of WindowRefs trace references,
// one per PeriodRefs references, with functional fast-forward covering
// the gaps. The per-window (instructions, cycles) population feeds the
// pooled-ratio IPC estimate ± CI95 the sampled Result reports.
type SampleSpec struct {
	// WindowRefs is the length of each cycle-accurate window, in trace
	// references across all cores.
	WindowRefs uint64 `json:"window_refs"`
	// PeriodRefs is the sampling period: one window per PeriodRefs
	// references on average. The gap between windows fast-forwards
	// functionally, and its length is drawn uniformly in [0, 2×mean gap]
	// by a fixed-seed generator: applications with periodic phase
	// structure (tight loops over a working set) otherwise alias against
	// a strict stride, and a single unlucky phase offset shifts the IPC
	// estimate by several percent while the window-population CI reports
	// tight agreement. Randomized placement restores the unbiasedness of
	// the stratified estimate and makes the CI honest.
	PeriodRefs uint64 `json:"period_refs"`
	// WarmRefs is each window's detailed-warming prefix (SMARTS' W):
	// simulated cycle-accurately so DRAM queue and row-buffer state ramp
	// up from the fast-forwarded span's stale values, but excluded from
	// the window's IPC observation. Without it the estimate biases high
	// for designs that keep off-package DRAM under continuous queue
	// pressure (NoL3, BI): every window would start against idle banks.
	WarmRefs uint64 `json:"warm_refs,omitempty"`
}

// Validate checks the spec's internal consistency.
func (s SampleSpec) Validate() error {
	if s.WindowRefs == 0 {
		return fmt.Errorf("system: sample window must be positive")
	}
	if s.PeriodRefs <= s.WindowRefs+s.WarmRefs {
		return fmt.Errorf("system: sample period (%d) must exceed warming+window (%d+%d)", s.PeriodRefs, s.WarmRefs, s.WindowRefs)
	}
	return nil
}

// SampledInfo summarizes a sampled run: the window population, the IPC
// estimate it yields (equal to Result.IPC), and that estimate's 95%
// confidence half-width. It is nil on full (unsampled) Results and never
// enters golden fingerprints.
type SampledInfo struct {
	Windows      uint64 // cycle-accurate windows measured
	WindowRefs   uint64 // spec: references per window
	PeriodRefs   uint64 // spec: references per period
	MeasuredRefs uint64 // references simulated cycle-accurately
	FastRefs     uint64 // references fast-forwarded
	// IPC is the sampled estimate of the full-run IPC — the headline
	// Result.IPC, restated here next to its confidence interval.
	IPC float64
	// IPCCI95 is the 95% confidence half-width of the estimate's
	// sampling error (window-to-window variation). Fast-forward state
	// staleness is a separate, systematic error; the accuracy tests
	// bound the two together at ≤2% on the validated configurations.
	IPCCI95 float64
}

// RunSampled executes the workload with SMARTS-style sampling: an
// accurate warm-up of `warmup` instructions per core, then alternating
// cycle-accurate measurement windows and functional fast-forward until
// every core has retired `measure` further instructions. Every counter in
// the Result — cycles, instructions, device traffic, latency attribution —
// covers only the union of the accurate windows (fast-forwarded spans
// leave every counter as they found it), so the Result is internally
// consistent; Result.Sampled carries the IPC estimate ± CI95 and the
// fast/accurate reference split.
func (m *Machine) RunSampled(warmup, measure uint64, spec SampleSpec) (*Result, error) {
	// Fail fast on spec errors before spending the warm-up.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := m.warm(warmup); err != nil {
		return nil, err
	}
	return m.MeasureSampled(measure, spec)
}

// MeasureSampled runs the sampled measured phase from the machine's
// current warm state — established by RunSampled's own warm-up, an
// explicit Warmup, or LoadCheckpoint — so checkpointed sweeps can fan a
// warm state out into sampled measurement.
func (m *Machine) MeasureSampled(measure uint64, spec SampleSpec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	target, err := m.beginMeasurement(measure)
	if err != nil {
		return nil, err
	}

	// Deterministic splitmix64 stream for window placement (see
	// SampleSpec.PeriodRefs). Seeded from the spec so identical sampled
	// runs reproduce bit-identically.
	gapBase := spec.PeriodRefs - spec.WindowRefs - spec.WarmRefs
	rngState := spec.PeriodRefs*0x9E3779B97F4A7C15 ^ spec.WindowRefs*0xBF58476D1CE4E5B9 ^ 0x94D049BB133111EB
	nextGap := func() uint64 {
		rngState += 0x9E3779B97F4A7C15
		z := rngState
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		return z % (2*gapBase + 1)
	}

	var (
		windows     uint64
		measured    uint64
		fast        uint64
		totalCycles sim.Tick
		totalInstr  uint64
		winC        = make([]sim.Tick, len(m.cores))
		winI        = make([]uint64, len(m.cores))
		coreRatio   = make([]stats.Ratio, len(m.cores))
	)
	for {
		if next, _ := m.nextCore(target); next == nil {
			break
		}
		// Detailed-warming prefix: cycle-accurate, outside the IPC
		// observation.
		start := m.refs
		if err := m.advance(spec.WarmRefs, target, false); err != nil {
			return nil, err
		}
		// Cycle-accurate window of WindowRefs references.
		for i, cc := range m.cores {
			winC[i], winI[i] = cc.cpu.Now(), cc.cpu.Instructions
		}
		if err := m.advance(spec.WindowRefs, target, false); err != nil {
			return nil, err
		}
		measured += m.refs - start
		// Close the window without draining in-flight misses. A drain
		// looks attractive — the window's last misses otherwise truncate
		// their stall cycles — but it empties the memory system at every
		// boundary, recreating exactly the idle-queue startup that
		// WarmRefs exists to prevent, and the warming prefix only
		// partially rebuilds queue pressure: at matched window counts a
		// per-window drain overstates IPC by ~1.4% where undrained
		// windows match the full run to ~0.1% (sphinx3/cTLB, 2000-ref
		// windows tiling a 100M-ref run). Truncation, by contrast, is
		// symmetric — the in-flight work a window loses at its close
		// mirrors the in-flight work it inherited at its open — and
		// cancels across the window population.
		var winCycles sim.Tick
		for i, cc := range m.cores {
			dc := cc.cpu.Now() - winC[i]
			di := cc.cpu.Instructions - winI[i]
			totalInstr += di
			if dc > winCycles {
				winCycles = dc
			}
			coreRatio[i].Observe(float64(di), float64(dc))
		}
		totalCycles += winCycles
		if winCycles > 0 {
			windows++
		}
		if next, _ := m.nextCore(target); next == nil {
			break
		}

		// Functional fast-forward to the next window, over a randomized
		// gap averaging PeriodRefs-WindowRefs-WarmRefs references.
		gap := nextGap()
		if gap == 0 {
			continue
		}
		start = m.refs
		if err := m.fastForward(gap, target); err != nil {
			return nil, err
		}
		fast += m.refs - start
	}

	r := m.collect()
	// Rebase the counters on the window union: collect() spans the whole
	// measured phase, but only the windows were simulated cycle-accurately
	// (and only they accumulated counters). A core's IPC is its pooled
	// window ratio, Σinstructions/Σcycles over the windows.
	r.Cycles = uint64(totalCycles)
	r.Instructions = totalInstr
	r.PerCoreIPC = r.PerCoreIPC[:0]
	minCore, minIdx := 0.0, -1
	for i := range m.cores {
		v := coreRatio[i].Value()
		r.PerCoreIPC = append(r.PerCoreIPC, v)
		if minIdx < 0 || v < minCore {
			minCore, minIdx = v, i
		}
	}
	// Headline IPC estimator. The full run's IPC is Σinstructions over the
	// slowest core's cycles, and cores retire equal instruction budgets,
	// so it equals cores × the slowest core's IPC — reconstruct that from
	// the per-core window ratios (each unbiased for its core) rather than
	// averaging per-window system IPCs, which Jensen-biases high, or
	// pooling per-window max-cycles, which accumulates skew and biases
	// low.
	r.IPC = float64(len(r.PerCoreIPC)) * minCore
	m.price(r)
	// The CI quantifies the sampling error of the headline estimator:
	// the slowest core's pooled instructions/cycles ratio over the
	// window population, whose delta-method CI the Ratio accumulator
	// provides, scaled by the core count like the estimate itself.
	r.Sampled = &SampledInfo{
		Windows:      windows,
		WindowRefs:   spec.WindowRefs,
		PeriodRefs:   spec.PeriodRefs,
		MeasuredRefs: measured,
		FastRefs:     fast,
		IPC:          r.IPC,
		IPCCI95:      float64(len(r.PerCoreIPC)) * coreRatio[minIdx].CI95(),
	}
	return r, nil
}
