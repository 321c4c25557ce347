package system

import (
	"fmt"
	"strings"

	"taglessdram/internal/config"
	"taglessdram/internal/core"
	"taglessdram/internal/dram"
	"taglessdram/internal/energy"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/obs"
	"taglessdram/internal/sim"
)

// Result summarizes one measured run.
type Result struct {
	Workload string
	Design   config.L3Design

	Cycles       uint64 // measured cycles (longest core)
	Instructions uint64 // measured instructions across cores
	IPC          float64
	PerCoreIPC   []float64

	// AvgL3Latency is the Figure 8 metric: device-side L3 latency plus
	// TLB-miss handler time, amortized over L3 accesses, in cycles.
	AvgL3Latency float64
	L3Accesses   uint64
	L3Hits       uint64
	L3HitRate    float64

	TLBLookups  uint64
	TLBMisses   uint64
	TLBMissRate float64
	NCAccesses  uint64

	// SharedTLBInvalidations counts L1 entries of one core killed by a
	// different core's shared-L2 activity (shared topology only), and
	// CtxSwitches counts context switches applied over the measured
	// window. Neither enters golden fingerprints.
	SharedTLBInvalidations uint64
	CtxSwitches            uint64

	Energy  energy.Breakdown
	EDPJs   float64 // energy-delay product in joule-seconds
	Seconds float64

	InPkgRowHitRate  float64
	OffPkgRowHitRate float64
	InPkgBytes       uint64
	OffPkgBytes      uint64

	// Latency is the cycle-accounting summary of the measured window:
	// per-component stall attribution for the L3-access and TLB-miss
	// handler scopes (conservation-checked — see lat.Breakdown.Residue),
	// background write-back attribution, and the latency histograms
	// behind the tail metrics.
	Latency lat.Summary
	// InPkgBankStats/OffPkgBankStats are the per-bank row-hit/row-conflict
	// counters and busy ticks of each device over the measured window.
	InPkgBankStats  []dram.BankStat
	OffPkgBankStats []dram.BankStat
	// InPkgBusBusy/OffPkgBusBusy are data-bus busy ticks summed over each
	// device's channels; with the channel counts they give utilizations.
	InPkgBusBusy   uint64
	OffPkgBusBusy  uint64
	InPkgChannels  int
	OffPkgChannels int

	// Ctrl carries tagless-controller counters (zero for other designs).
	Ctrl core.Stats
	// MissKindMean/Count give the cTLB miss-handler latency per outcome,
	// indexed by core.MissKind (Table 1's four cases; tagless only).
	MissKindMean  [4]float64
	MissKindCount [4]uint64
	// SRAMHitRate is the page-cache hit rate (SRAM-tag design only).
	SRAMHitRate float64

	// References counts trace references processed over the whole run
	// (warm-up and measured phases); KernelEvents counts discrete events
	// the simulation kernel executed. Both are wall-clock throughput
	// denominators, not paper metrics.
	References   uint64
	KernelEvents uint64

	// Sampled summarizes a SMARTS-style sampled run — window population,
	// IPC mean ± CI95, fast/accurate reference split — and is nil on full
	// runs. Like Epochs it never enters golden fingerprints: sampling is
	// an estimator of the full run, not a different simulated behavior.
	Sampled *SampledInfo

	// Epochs is the epoch-resolved time series captured when a sampler
	// was attached (nil otherwise): per-epoch counter deltas and gauges,
	// oldest first. EpochsDropped counts epochs lost to the sampler's
	// ring wrapping. Neither field enters golden fingerprints — sampling
	// is observability, not simulated behavior.
	Epochs        []obs.Epoch
	EpochsDropped int
}

// resultImageVersion tags Result's flat image: the payload the result
// cache stores and the sweep service streams without decoding. Changing
// the layout requires bumping resultcache's entryFormat in the same
// change (TestResultImagePinned pins the bytes).
const resultImageVersion = 1

// MarshalBinary renders r as its flat image: a version byte, then every
// field in declaration order (visit). Unsigned integers are uvarints,
// signed ones zigzag varints and floats their 8 IEEE-754 bytes, so NaN
// payloads, −0 and ±Inf survive; slices follow their length, Sampled a
// presence byte. The image is a function of r alone. It never fails.
func (r *Result) MarshalBinary() ([]byte, error) {
	// Size the buffer for a typical image, so it is written in one go.
	n := 1024 + len(r.Workload) + 8*len(r.PerCoreIPC) +
		8*(len(r.InPkgBankStats)+len(r.OffPkgBankStats)) + 256*len(r.Epochs)
	return flat.Encode(make([]byte, 0, n), r.visit)
}

// UnmarshalBinary decodes an image MarshalBinary rendered into r. It
// accepts exactly those images: an unknown version, a short, padded or
// over-long image, or a count the image cannot hold is an error, and r
// is only written when the whole image decodes. An empty slice decodes
// to nil.
func (r *Result) UnmarshalBinary(data []byte) error {
	var x Result
	if err := flat.Decode(data, x.visit); err != nil {
		return fmt.Errorf("system: Result image: %w", err)
	}
	*r = x
	return nil
}

// visit hands every field of r to c in image order, so one list serves
// both directions. Rendering only reads r, so concurrent renders of one
// Result do not race.
func (r *Result) visit(c *flat.Codec) {
	c.Fixed(resultImageVersion, "Result image version")
	c.Text(&r.Workload)
	c.Int((*int)(&r.Design))
	c.U64(&r.Cycles)
	c.U64(&r.Instructions)
	c.F64(&r.IPC)
	flat.Resize(&r.PerCoreIPC, c.Count(len(r.PerCoreIPC), 8))
	for i := range r.PerCoreIPC {
		c.F64(&r.PerCoreIPC[i])
	}
	c.F64(&r.AvgL3Latency)
	c.U64(&r.L3Accesses)
	c.U64(&r.L3Hits)
	c.F64(&r.L3HitRate)
	c.U64(&r.TLBLookups)
	c.U64(&r.TLBMisses)
	c.F64(&r.TLBMissRate)
	c.U64(&r.NCAccesses)
	c.U64(&r.SharedTLBInvalidations)
	c.U64(&r.CtxSwitches)
	c.F64(&r.Energy.CoreJ)
	c.F64(&r.Energy.InPkgJ)
	c.F64(&r.Energy.OffPkgJ)
	c.F64(&r.Energy.TagJ)
	c.F64(&r.EDPJs)
	c.F64(&r.Seconds)
	c.F64(&r.InPkgRowHitRate)
	c.F64(&r.OffPkgRowHitRate)
	c.U64(&r.InPkgBytes)
	c.U64(&r.OffPkgBytes)
	visitBreakdown(c, &r.Latency.L3)
	visitBreakdown(c, &r.Latency.Handler)
	visitBreakdown(c, &r.Latency.Bg)
	r.Latency.L3Lat.Visit(c)
	r.Latency.HandlerLat.Visit(c)
	visitBanks(c, &r.InPkgBankStats)
	visitBanks(c, &r.OffPkgBankStats)
	c.U64(&r.InPkgBusBusy)
	c.U64(&r.OffPkgBusBusy)
	c.Int(&r.InPkgChannels)
	c.Int(&r.OffPkgChannels)
	r.Ctrl.Visit(c)
	for i := range r.MissKindMean {
		c.F64(&r.MissKindMean[i])
	}
	for i := range r.MissKindCount {
		c.U64(&r.MissKindCount[i])
	}
	c.F64(&r.SRAMHitRate)
	c.U64(&r.References)
	c.U64(&r.KernelEvents)
	if c.Present(r.Sampled != nil) {
		if r.Sampled == nil {
			r.Sampled = new(SampledInfo)
		}
		s := r.Sampled
		c.U64(&s.Windows)
		c.U64(&s.WindowRefs)
		c.U64(&s.PeriodRefs)
		c.U64(&s.MeasuredRefs)
		c.U64(&s.FastRefs)
		c.F64(&s.IPC)
		c.F64(&s.IPCCI95)
	}
	flat.Resize(&r.Epochs, c.Count(len(r.Epochs), epochMinBytes))
	for i := range r.Epochs {
		visitEpoch(c, &r.Epochs[i])
	}
	c.Int(&r.EpochsDropped)
}

func visitBreakdown(c *flat.Codec, b *lat.Breakdown) {
	for i := range b.Cycles {
		c.U64(&b.Cycles[i])
	}
	c.U64(&b.Commits)
	c.U64(&b.Measured)
	c.U64(&b.Residue)
}

func visitBanks(c *flat.Codec, banks *[]dram.BankStat) {
	flat.Resize(banks, c.Count(len(*banks), bankMinBytes))
	for i := range *banks {
		visitBank(c, &(*banks)[i])
	}
}

func visitBank(c *flat.Codec, b *dram.BankStat) {
	c.U64(&b.Hits)
	c.U64(&b.Confls)
	c.U64(&b.BusyTicks)
}

func visitEpoch(c *flat.Codec, e *obs.Epoch) {
	c.Int(&e.Index)
	c.U64(&e.EndCycle)
	c.U64(&e.Refs)
	c.U64(&e.Instructions)
	c.U64(&e.Cycles)
	c.F64(&e.IPC)
	c.U64(&e.L3Accesses)
	c.U64(&e.L3Hits)
	c.F64(&e.L3HitRate)
	c.U64(&e.TLBLookups)
	c.U64(&e.TLBMisses)
	c.F64(&e.TLBMissRate)
	c.Int(&e.FreeBlocks)
	c.Int(&e.FreeQueueLen)
	c.U64(&e.InPkgBytes)
	c.U64(&e.OffPkgBytes)
	c.F64(&e.InPkgRowHitRate)
	c.F64(&e.OffPkgRowHitRate)
	c.F64(&e.L3LatP99)
	c.F64(&e.InPkgBusUtil)
	c.F64(&e.OffPkgBusUtil)
	e.Ctrl.Visit(c)
}

// bankMinBytes and epochMinBytes are the image sizes of a zero element:
// they bound a decoded count before anything is allocated for it.
var (
	bankMinBytes  = flat.MinSize(func(c *flat.Codec) { visitBank(c, new(dram.BankStat)) })
	epochMinBytes = flat.MinSize(func(c *flat.Codec) { visitEpoch(c, new(obs.Epoch)) })
)

// collect lets in-flight accesses and background evictions finish, then
// assembles the Result of the measured phase.
func (m *Machine) collect() *Result {
	for _, cc := range m.cores {
		cc.cpu.Drain()
	}
	m.kernel.Run(0)
	r := &Result{
		Workload: m.workload.Name,
		Design:   m.cfg.Design,
	}
	var maxCycles sim.Tick
	for _, cc := range m.cores {
		cycles := cc.cpu.Now() - cc.startCycle
		instr := cc.cpu.Instructions - cc.startInstr
		r.Instructions += instr
		if cycles > maxCycles {
			maxCycles = cycles
		}
		ipc := 0.0
		if cycles > 0 {
			ipc = float64(instr) / float64(cycles)
		}
		r.PerCoreIPC = append(r.PerCoreIPC, ipc)
	}
	r.Cycles = uint64(maxCycles)
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}

	r.L3Accesses = m.l3Accesses
	r.L3Hits = m.l3Hits
	if r.L3Accesses > 0 {
		r.L3HitRate = float64(r.L3Hits) / float64(r.L3Accesses)
		r.AvgL3Latency = (m.l3Lat.Sum() + m.handlerLat.Sum()) / float64(r.L3Accesses)
	}
	r.TLBLookups = m.tlbLookups
	r.TLBMisses = m.tlbMisses
	if r.TLBLookups > 0 {
		r.TLBMissRate = float64(r.TLBMisses) / float64(r.TLBLookups)
	}
	r.NCAccesses = m.ncAccesses
	r.CtxSwitches = m.ctxSwitches
	if m.tlbShared != nil {
		r.SharedTLBInvalidations = m.tlbShared.Invalidations
	}

	st := m.org.Stats()
	r.Ctrl = st.Ctrl
	r.SRAMHitRate = st.Tag.HitRate()

	for i := range m.kindLat {
		r.MissKindMean[i] = m.kindLat[i].Value()
		r.MissKindCount[i] = m.kindLat[i].Count()
	}
	m.price(r)

	r.InPkgRowHitRate = m.inPkg.RowHitRate()
	r.OffPkgRowHitRate = m.offPkg.RowHitRate()
	r.InPkgBytes = m.inPkg.BytesTransferred()
	r.OffPkgBytes = m.offPkg.BytesTransferred()
	r.Latency = m.rec.Summary()
	r.InPkgBankStats = m.inPkg.BankStats()
	r.OffPkgBankStats = m.offPkg.BankStats()
	r.InPkgBusBusy = m.inPkg.BusBusyTicks()
	r.OffPkgBusBusy = m.offPkg.BusBusyTicks()
	r.InPkgChannels = m.inPkg.Channels()
	r.OffPkgChannels = m.offPkg.Channels()
	r.References = m.refs
	r.KernelEvents = m.kernel.Executed()
	if m.sampler != nil {
		r.Epochs = m.sampler.Epochs()
		r.EpochsDropped = m.sampler.Dropped()
	}
	return r
}

// price sets r's energy, energy-delay product and wall time from its
// measured cycles. PerCoreIPC holds one entry per core, so it also
// counts the cores drawing power.
func (m *Machine) price(r *Result) {
	em := energy.Model{
		Cores:          len(r.PerCoreIPC),
		CorePowerWatts: m.cfg.CorePowerWatts,
		FreqGHz:        m.cfg.CPU.FreqGHz,
	}
	r.Energy = em.Account(r.Cycles, m.inPkg.EnergyPJ(), m.offPkg.EnergyPJ(), m.org.Stats().Tag.EnergyPJ())
	r.EDPJs = energy.EDP(r.Energy.TotalJ(), r.Cycles, m.cfg.CPU.FreqGHz)
	r.Seconds = float64(r.Cycles) / (m.cfg.CPU.FreqGHz * 1e9)
}

// Metrics flattens the result into named metrics, convenient for diffing
// runs or exporting to monitoring formats (WriteMetricsJSON writes this
// map, keys sorted).
func (r *Result) Metrics() map[string]float64 {
	l3, h := &r.Latency.L3, &r.Latency.Handler
	m := map[string]float64{
		"ipc":                         r.IPC,
		"cycles":                      float64(r.Cycles),
		"instructions":                float64(r.Instructions),
		"l3.accesses":                 float64(r.L3Accesses),
		"l3.hit_rate":                 r.L3HitRate,
		"l3.avg_latency_cycles":       r.AvgL3Latency,
		"tlb.miss_rate":               r.TLBMissRate,
		"nc.accesses":                 float64(r.NCAccesses),
		"vm.ctx_switches":             float64(r.CtxSwitches),
		"vm.shared_tlb_invalidations": float64(r.SharedTLBInvalidations),
		"energy.total_j":              r.Energy.TotalJ(),
		"energy.core_j":               r.Energy.CoreJ,
		"energy.inpkg_j":              r.Energy.InPkgJ,
		"energy.offpkg_j":             r.Energy.OffPkgJ,
		"energy.tag_j":                r.Energy.TagJ,
		"edp_js":                      r.EDPJs,
		"dram.inpkg_row_hit":          r.InPkgRowHitRate,
		"dram.offpkg_row_hit":         r.OffPkgRowHitRate,
		"dram.inpkg_bytes":            float64(r.InPkgBytes),
		"dram.offpkg_bytes":           float64(r.OffPkgBytes),
		"ctrl.victim_hits":            float64(r.Ctrl.VictimHits),
		"ctrl.cold_fills":             float64(r.Ctrl.ColdFills),
		"ctrl.evictions":              float64(r.Ctrl.Evictions),
		"ctrl.writebacks":             float64(r.Ctrl.Writebacks),
		"ctrl.alias_hits":             float64(r.Ctrl.AliasHits),

		// Cycle accounting: tail quantiles, stall totals, conservation
		// residues, and the per-component split (L3 + handler scopes summed).
		"lat.l3.p50":               r.Latency.L3Lat.Quantile(50),
		"lat.l3.p90":               r.Latency.L3Lat.Quantile(90),
		"lat.l3.p99":               r.Latency.L3Lat.Quantile(99),
		"lat.l3.p999":              r.Latency.L3Lat.Quantile(99.9),
		"lat.l3.max":               float64(r.Latency.L3Lat.Max()),
		"lat.l3.mean":              r.Latency.L3Lat.Mean(),
		"lat.l3.stall_cycles":      float64(l3.Measured),
		"lat.l3.residue":           float64(l3.Residue),
		"lat.handler.p99":          r.Latency.HandlerLat.Quantile(99),
		"lat.handler.max":          float64(r.Latency.HandlerLat.Max()),
		"lat.handler.stall_cycles": float64(h.Measured),
		"lat.handler.residue":      float64(h.Residue),
		"lat.bg.cycles":            float64(r.Latency.Bg.Measured),
	}
	for c := lat.Component(0); c < lat.NumComponents; c++ {
		m["lat.comp."+c.String()] = float64(l3.Cycles[c] + h.Cycles[c])
	}

	// Per-bank DRAM telemetry, aggregated (the full per-bank tables are
	// rendered by -lat-hist; the map carries stable aggregates so the
	// key set is independent of bank counts).
	setBankMetrics(m, "dram.bank.inpkg.", r.InPkgBankStats, r.Cycles)
	setBankMetrics(m, "dram.bank.offpkg.", r.OffPkgBankStats, r.Cycles)
	m["dram.bus.inpkg.busy_frac"] = busFrac(r.InPkgBusBusy, r.InPkgChannels, r.Cycles)
	m["dram.bus.offpkg.busy_frac"] = busFrac(r.OffPkgBusBusy, r.OffPkgChannels, r.Cycles)
	return m
}

// setBankMetrics adds one device's aggregated per-bank counters to m:
// total row hits and conflicts across banks, and the busiest bank's
// busy fraction of the measured window.
func setBankMetrics(m map[string]float64, prefix string, banks []dram.BankStat, cycles uint64) {
	var hits, confls, maxBusy uint64
	for _, b := range banks {
		hits += b.Hits
		confls += b.Confls
		if b.BusyTicks > maxBusy {
			maxBusy = b.BusyTicks
		}
	}
	frac := 0.0
	if cycles > 0 {
		frac = float64(maxBusy) / float64(cycles)
		if frac > 1 {
			frac = 1
		}
	}
	m[prefix+"row_hits"] = float64(hits)
	m[prefix+"row_confls"] = float64(confls)
	m[prefix+"max_busy_frac"] = frac
}

// busFrac is the average per-channel data-bus utilization over the
// measured window, clamped to 1 (in-flight transfers can extend past the
// window's closing cycle).
func busFrac(busy uint64, channels int, cycles uint64) float64 {
	if cycles == 0 || channels <= 0 {
		return 0
	}
	f := float64(busy) / (float64(cycles) * float64(channels))
	if f > 1 {
		return 1
	}
	return f
}

// String renders a one-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: IPC=%.3f L3hit=%.1f%% L3lat=%.1fcyc TLBmiss=%.2f%% E=%.3gJ EDP=%.3gJs",
		r.Workload, r.Design, r.IPC, r.L3HitRate*100, r.AvgL3Latency,
		r.TLBMissRate*100, r.Energy.TotalJ(), r.EDPJs)
	return b.String()
}
