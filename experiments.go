package taglessdram

import (
	"context"
	"fmt"

	"taglessdram/internal/amat"
	"taglessdram/internal/config"
	"taglessdram/internal/core"
	"taglessdram/internal/lat"
	"taglessdram/internal/stats"
	"taglessdram/internal/system"
	"taglessdram/internal/trace"
)

// DesignRow holds one workload's metrics for one design, normalized to the
// workload's NoL3 baseline (the paper's Figures 7, 9 and 12).
type DesignRow struct {
	Workload      string
	Design        Design
	IPC           float64
	NormIPC       float64 // vs the NoL3 baseline
	NormEDP       float64 // vs the NoL3 baseline (lower is better)
	L3HitRate     float64
	AvgL3Latency  float64
	EnergyJ       float64
	OffPkgGB      float64 // off-package traffic
	TLBMissRate   float64
	VictimHitRate float64 // tagless: victim hits / cTLB misses
}

// designRows assembles one workload's DesignRow block from its per-design
// results (res[i] is designs[i]'s run). The NoL3 baseline is located
// wherever it sits in the design list; a design set without it is an
// error, since every normalized column needs the baseline.
func designRows(workload string, designs []Design, res []*Result) ([]DesignRow, error) {
	var base *Result
	for i, d := range designs {
		if d == NoL3 {
			base = res[i]
		}
	}
	if base == nil {
		return nil, fmt.Errorf("taglessdram: %s: design set %v has no NoL3 baseline run", workload, designs)
	}
	rows := make([]DesignRow, 0, len(designs))
	for i, d := range designs {
		r := res[i]
		row := DesignRow{
			Workload:     workload,
			Design:       d,
			IPC:          r.IPC,
			L3HitRate:    r.L3HitRate,
			AvgL3Latency: r.AvgL3Latency,
			EnergyJ:      r.Energy.TotalJ(),
			OffPkgGB:     float64(r.OffPkgBytes) / 1e9,
			TLBMissRate:  r.TLBMissRate,
		}
		if base.IPC > 0 {
			row.NormIPC = r.IPC / base.IPC
		}
		if base.EDPJs > 0 {
			row.NormEDP = r.EDPJs / base.EDPJs
		}
		if d == Tagless && r.Ctrl.Walks > 0 {
			denom := r.Ctrl.VictimHits + r.Ctrl.ColdFills
			if denom > 0 {
				row.VictimHitRate = float64(r.Ctrl.VictimHits) / float64(denom)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runDesignGrid sweeps the full (workload × design) grid concurrently and
// returns the rows in the serial order: all designs of workloads[0], then
// workloads[1], and so on.
func runDesignGrid(ctx context.Context, workloads []string, o Options) ([]DesignRow, error) {
	designs := append(Designs(), o.ExtraDesigns...)
	jobs := make([]Job, 0, len(workloads)*len(designs))
	for _, wl := range workloads {
		for _, d := range designs {
			jobs = append(jobs, Job{Design: d, Workload: wl, Options: o})
		}
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var out []DesignRow
	for wi, wl := range workloads {
		rows, err := designRows(wl, designs, res[wi*len(designs):(wi+1)*len(designs)])
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// runAcrossDesigns measures all five designs for one workload.
func runAcrossDesigns(ctx context.Context, workload string, o Options) ([]DesignRow, error) {
	return runDesignGrid(ctx, []string{workload}, o)
}

// RunFigure7 reproduces Figure 7: normalized IPC and EDP of the 11
// single-programmed SPEC workloads under every design.
func RunFigure7(ctx context.Context, o Options) ([]DesignRow, error) {
	return runDesignGrid(ctx, SPECWorkloads(), o)
}

// Fig8Row is one workload's average L3 access time under the two tag
// designs (Figure 8; lower is better).
type Fig8Row struct {
	Workload    string
	SRAMTagLat  float64 // cycles
	TaglessLat  float64 // cycles
	ReductionPC float64 // percent reduction (positive = tagless faster)
}

// RunFigure8 reproduces Figure 8: average L3 access latency of the
// SRAM-tag and tagless caches over the SPEC workloads.
func RunFigure8(ctx context.Context, o Options) ([]Fig8Row, error) {
	wls := SPECWorkloads()
	jobs := make([]Job, 0, 2*len(wls))
	for _, wl := range wls {
		jobs = append(jobs,
			Job{Design: SRAMTag, Workload: wl, Options: o},
			Job{Design: Tagless, Workload: wl, Options: o})
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var out []Fig8Row
	for i, wl := range wls {
		rs, rt := res[2*i], res[2*i+1]
		row := Fig8Row{Workload: wl, SRAMTagLat: rs.AvgL3Latency, TaglessLat: rt.AvgL3Latency}
		if rs.AvgL3Latency > 0 {
			row.ReductionPC = (rs.AvgL3Latency - rt.AvgL3Latency) / rs.AvgL3Latency * 100
		}
		out = append(out, row)
	}
	return out, nil
}

// RunFigure9 reproduces Figure 9: normalized IPC and EDP of MIX1–MIX8.
func RunFigure9(ctx context.Context, o Options) ([]DesignRow, error) {
	return runDesignGrid(ctx, MixWorkloads(), o)
}

// Fig10Row is one (mix, cache size) IPC pair normalized to the
// bank-interleaving baseline (Figure 10).
type Fig10Row struct {
	Workload  string
	CacheMB   int64 // scaled capacity (paper scale = CacheMB << Shift)
	SRAMNorm  float64
	CTLBNorm  float64
	BIBaseIPC float64
}

// RunFigure10 reproduces Figure 10: sensitivity to DRAM-cache size. The
// paper's 256MB/512MB/1GB points scale to 4/8/16MB at the default shift.
func RunFigure10(ctx context.Context, o Options, mixes []string) ([]Fig10Row, error) {
	if len(mixes) == 0 {
		mixes = MixWorkloads()
	}
	sizes := []int64{4, 8, 16} // MB at shift 6 == 256MB/512MB/1GB at paper scale
	type cell struct {
		wl string
		mb int64
	}
	var cells []cell
	var jobs []Job
	for _, wl := range mixes {
		for _, mb := range sizes {
			oSize := o
			oSize.CacheMB = mb
			cells = append(cells, cell{wl, mb})
			jobs = append(jobs,
				Job{Design: BankInterleave, Workload: wl, Options: oSize},
				Job{Design: SRAMTag, Workload: wl, Options: oSize},
				Job{Design: Tagless, Workload: wl, Options: oSize})
		}
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var out []Fig10Row
	for i, c := range cells {
		bi, sr, ct := res[3*i], res[3*i+1], res[3*i+2]
		row := Fig10Row{Workload: c.wl, CacheMB: c.mb, BIBaseIPC: bi.IPC}
		if bi.IPC > 0 {
			row.SRAMNorm = sr.IPC / bi.IPC
			row.CTLBNorm = ct.IPC / bi.IPC
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig11Row compares victim-selection policies for one mix (Figure 11,
// extended with the CLOCK second-chance policy the paper names as the
// practical LRU approximation).
type Fig11Row struct {
	Workload  string
	FIFOIPC   float64
	LRUIPC    float64
	CLOCKIPC  float64
	LRUGain   float64 // fractional IPC gain of LRU over FIFO
	CLOCKGain float64 // fractional IPC gain of CLOCK over FIFO
}

// RunFigure11 reproduces Figure 11: the replacement-policy sensitivity of
// the tagless cache.
func RunFigure11(ctx context.Context, o Options, mixes []string) ([]Fig11Row, error) {
	if len(mixes) == 0 {
		mixes = MixWorkloads()
	}
	policies := []config.ReplacementPolicy{FIFO, LRU, CLOCK}
	var jobs []Job
	for _, wl := range mixes {
		for _, p := range policies {
			op := o
			op.Policy = p
			jobs = append(jobs, Job{Design: Tagless, Workload: wl, Options: op})
		}
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var out []Fig11Row
	for i, wl := range mixes {
		rf, rl, rc := res[3*i], res[3*i+1], res[3*i+2]
		row := Fig11Row{Workload: wl, FIFOIPC: rf.IPC, LRUIPC: rl.IPC, CLOCKIPC: rc.IPC}
		if rf.IPC > 0 {
			row.LRUGain = rl.IPC/rf.IPC - 1
			row.CLOCKGain = rc.IPC/rf.IPC - 1
		}
		out = append(out, row)
	}
	return out, nil
}

// RunFigure12 reproduces Figure 12: the four PARSEC multi-threaded
// workloads across designs.
func RunFigure12(ctx context.Context, o Options) ([]DesignRow, error) {
	return runDesignGrid(ctx, PARSECWorkloads(), o)
}

// Fig13Row is the non-cacheable-pages case study (Figure 13).
type Fig13Row struct {
	Workload    string
	BaseIPC     float64 // tagless without NC classification
	NCIPC       float64 // tagless with low-reuse pages marked NC
	GainPC      float64 // percent IPC gain
	NCAccesses  uint64
	BaseOffPkgB uint64
	NCOffPkgB   uint64
}

// RunFigure13 reproduces Figure 13: marking low-reuse pages non-cacheable
// for GemsFDTD (the paper's threshold is 32 accesses).
func RunFigure13(ctx context.Context, o Options) (Fig13Row, error) {
	onc := o
	onc.NCAccessThreshold = 32
	res, err := runJobs(ctx, o, []Job{
		{Design: Tagless, Workload: "GemsFDTD", Options: o},
		{Design: Tagless, Workload: "GemsFDTD", Options: onc},
	})
	if err != nil {
		return Fig13Row{}, err
	}
	base, nc := res[0], res[1]
	row := Fig13Row{
		Workload:    "GemsFDTD",
		BaseIPC:     base.IPC,
		NCIPC:       nc.IPC,
		NCAccesses:  nc.NCAccesses,
		BaseOffPkgB: base.OffPkgBytes,
		NCOffPkgB:   nc.OffPkgBytes,
	}
	if base.IPC > 0 {
		row.GainPC = (nc.IPC/base.IPC - 1) * 100
	}
	return row, nil
}

// Table1Row describes one of the four (TLB, DRAM cache) cases with its
// measured handler cost (Table 1).
type Table1Row struct {
	TLB         string
	Cache       string
	Description string
	MeanCycles  float64
	Count       uint64
}

// RunTable1 measures the four access cases of Table 1. mcf exercises the
// cache-side cases: its footprint exceeds the TLB reach (victim hits) and
// its singleton pages cause cold fills during measurement. A second run
// with the offline non-cacheable policy enabled supplies the (Hit, Miss)
// row, since that policy diverts the same singleton pages around the
// cache. Pending-update waits require concurrent threads faulting on one
// page and may legitimately be absent.
func RunTable1(ctx context.Context, o Options) ([]Table1Row, error) {
	onc := o
	onc.NCAccessThreshold = 32
	res, err := runJobs(ctx, o, []Job{
		{Design: Tagless, Workload: "mcf", Options: o},
		{Design: Tagless, Workload: "mcf", Options: onc},
	})
	if err != nil {
		return nil, err
	}
	r, rnc := res[0], res[1]
	mk := func(r *Result, k core.MissKind) (float64, uint64) {
		return r.MissKindMean[k], r.MissKindCount[k]
	}
	var rows []Table1Row
	// The (Hit, Hit) case never enters the handler: a cTLB hit is a
	// guaranteed cache hit with zero translation penalty.
	rows = append(rows, Table1Row{"Hit", "Hit",
		"Cache hit; zero latency penalty", 0, r.TLBLookups - r.TLBMisses})
	m, c := mk(rnc, core.MissNonCacheable)
	rows = append(rows, Table1Row{"Hit/Miss", "Miss",
		"Non-cacheable page; off-package block access", m, c})
	m, c = mk(r, core.MissVictimHit)
	rows = append(rows, Table1Row{"Miss", "Hit",
		"In-package victim hit; zero penalty beyond the TLB miss", m, c})
	m, c = mk(r, core.MissColdFill)
	rows = append(rows, Table1Row{"Miss", "Miss",
		"Off-package miss; cache fill and GIPT update", m, c})
	m, c = mk(r, core.MissPendingWait)
	rows = append(rows, Table1Row{"Miss", "Pending",
		"Concurrent fill in flight; busy-wait on the PU bit", m, c})
	return rows, nil
}

// Table2Row quantifies one design against Table 2's qualitative claims.
type Table2Row struct {
	Design        Design
	TagStorageMB  float64 // on-die SRAM for tags (paper scale)
	TagInDRAMMB   float64 // in-package DRAM consumed by tags (paper scale)
	L3HitRate     float64
	AvgL3Latency  float64
	InPkgRowHit   float64 // DRAM row-buffer locality
	OverFetchGB   float64 // off-package traffic (over-fetch proxy)
	NormalizedIPC float64
}

// RunTable2 measures the design-comparison table on one mix.
func RunTable2(ctx context.Context, o Options, workload string) ([]Table2Row, error) {
	if workload == "" {
		workload = "MIX3"
	}
	designs := []Design{AlloyBlock, Banshee, SRAMTag, Tagless}
	jobs := []Job{{Design: NoL3, Workload: workload, Options: o}}
	for _, d := range designs {
		jobs = append(jobs, Job{Design: d, Workload: workload, Options: o})
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	base := res[0]
	var out []Table2Row
	for i, d := range designs {
		r := res[i+1]
		row := Table2Row{
			Design:       d,
			L3HitRate:    r.L3HitRate,
			AvgL3Latency: r.AvgL3Latency,
			InPkgRowHit:  r.InPkgRowHitRate,
			OverFetchGB:  float64(r.OffPkgBytes) / 1e9,
		}
		cfg := configFor(d, o)
		paperCache := cfg.CacheSize << o.Shift
		switch d {
		case SRAMTag:
			// The tag array at paper scale (4MB for a 1GB cache).
			row.TagStorageMB = float64(config.TagParamsFor(paperCache).TagBytes) / float64(config.MB)
		case AlloyBlock:
			// Tags live in DRAM: 8B per 64B line (the 128MB/GB problem).
			row.TagInDRAMMB = float64(config.BlockTagBytes(paperCache)) / float64(config.MB)
		case Banshee:
			// Mapping metadata lives in the page tables: 8B per cached
			// page, buffered on-die in a small tag buffer.
			row.TagInDRAMMB = float64((int64(cfg.CachePages())<<o.Shift)*8) / float64(config.MB)
		}
		if base.IPC > 0 {
			row.NormalizedIPC = r.IPC / base.IPC
		}
		out = append(out, row)
	}
	return out, nil
}

// Table6Row re-exports the SRAM tag-array design points.
type Table6Row = config.TagParams

// RunTable6 returns Table 6: tag size and latency versus cache size.
func RunTable6() []Table6Row { return config.Table6() }

// AMATRow cross-checks the analytic model (Equations 1–5) against the
// simulator for one workload. The closed forms use contention-free device
// latencies, so their absolute values are lower bounds on the simulated
// (queued) latencies; the structural check is the SRAM−tagless *gap*,
// which cancels the common queueing terms.
type AMATRow struct {
	Workload      string
	SimSRAMLat    float64
	ModelSRAMLat  float64 // queueing-free lower bound
	SimCTLBLat    float64
	ModelCTLBLat  float64 // queueing-free lower bound
	SimGap        float64 // SimSRAMLat − SimCTLBLat
	ModelGap      float64 // ModelSRAMLat − ModelCTLBLat
	SRAMErrorPC   float64
	CTLBErrorPC   float64
	VictimMissRte float64
}

// RunAMATCheck feeds each workload's measured rates into the closed-form
// AMAT model and reports the relative error against the simulated average
// L3 latency.
func RunAMATCheck(ctx context.Context, o Options, workloads []string) ([]AMATRow, error) {
	if len(workloads) == 0 {
		workloads = []string{"sphinx3", "libquantum", "GemsFDTD"}
	}
	cfg := configFor(SRAMTag, o)
	tag := config.TagParamsFor(cfg.CacheSize)
	jobs := make([]Job, 0, 2*len(workloads))
	for _, wl := range workloads {
		jobs = append(jobs,
			Job{Design: SRAMTag, Workload: wl, Options: o},
			Job{Design: Tagless, Workload: wl, Options: o})
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var out []AMATRow
	for i, wl := range workloads {
		rs, rt := res[2*i], res[2*i+1]
		accesses := float64(rt.TLBLookups)
		if accesses == 0 {
			continue
		}
		victimMiss := 0.0
		if n := rt.Ctrl.VictimHits + rt.Ctrl.ColdFills; n > 0 {
			victimMiss = float64(rt.Ctrl.ColdFills) / float64(n)
		}
		in := amat.Inputs{
			MissRateTLB:    rt.TLBMissRate,
			MissRateL12:    float64(rt.L3Accesses) / accesses,
			MissRateL3:     1 - rs.L3HitRate,
			MissRateVictim: victimMiss,
			MissPenaltyTLB: float64(cfg.PageWalkCycles),
			HitTimeL12:     float64(cfg.L1D.LatencyCycle),
			TagAccess:      float64(tag.LatencyCyc),
			// Component latencies from the device model, with a queueing
			// allowance measured as the gap between simulated latency
			// and the open-bank service time.
			BlockInPkg:      rrBlockInPkg,
			PageOffPkg:      rrPageOffPkg,
			GIPTAccess:      rrGIPT,
			BlockOffPkgMiss: rrBlockOffPkg,
		}
		row := AMATRow{
			Workload:      wl,
			SimSRAMLat:    rs.AvgL3Latency,
			ModelSRAMLat:  amat.AvgL3LatencySRAMFig8(in),
			SimCTLBLat:    rt.AvgL3Latency,
			ModelCTLBLat:  amat.AvgL3LatencyTagless(in),
			VictimMissRte: victimMiss,
		}
		row.SimGap = row.SimSRAMLat - row.SimCTLBLat
		row.ModelGap = row.ModelSRAMLat - row.ModelCTLBLat
		if row.SimSRAMLat > 0 {
			row.SRAMErrorPC = (row.ModelSRAMLat - row.SimSRAMLat) / row.SimSRAMLat * 100
		}
		if row.SimCTLBLat > 0 {
			row.CTLBErrorPC = (row.ModelCTLBLat - row.SimCTLBLat) / row.SimCTLBLat * 100
		}
		out = append(out, row)
	}
	return out, nil
}

// LatencyRow is one design's measured latency attribution for a
// workload: tail quantiles of the per-reference L3 latency distribution
// and the per-component stall breakdown in cycles per L3 access. The
// component columns follow LatencyComponentNames() order and sum (with
// the handler scope folded in) to AvgLat exactly — the conservation
// invariant checked by CheckLatencyAttribution.
type LatencyRow struct {
	Workload   string
	Design     Design
	AvgLat     float64 // measured stall cycles per L3 access
	P50        float64
	P99        float64
	P999       float64
	Max        uint64
	Components []float64 // cycles/access, LatencyComponentNames() order
}

// RunLatencyBreakdown measures the per-component latency attribution of
// every registered organization on one workload (the observability
// companion to Figure 8: not just *that* the tagless cache is faster,
// but *where* the cycles go).
func RunLatencyBreakdown(ctx context.Context, o Options, workload string) ([]LatencyRow, error) {
	if workload == "" {
		workload = "sphinx3"
	}
	designs := Organizations()
	jobs := make([]Job, 0, len(designs))
	for _, d := range designs {
		jobs = append(jobs, Job{Design: d, Workload: workload, Options: o})
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]LatencyRow, 0, len(designs))
	for i, d := range designs {
		r := res[i]
		if err := CheckLatencyAttribution(r); err != nil {
			return nil, err
		}
		s := &r.Latency
		row := LatencyRow{
			Workload:   workload,
			Design:     d,
			AvgLat:     r.AvgL3Latency,
			P50:        s.L3Lat.Quantile(50),
			P99:        s.L3Lat.Quantile(99),
			P999:       s.L3Lat.Quantile(99.9),
			Max:        s.L3Lat.Max(),
			Components: make([]float64, lat.NumComponents),
		}
		if r.L3Accesses > 0 {
			for c := lat.Component(0); c < lat.NumComponents; c++ {
				row.Components[c] = float64(s.L3.Cycles[c]+s.Handler.Cycles[c]) / float64(r.L3Accesses)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// SharedPageRow is one configuration of the shared-page study (the
// Section 6 extension): how the tagless cache handles pages shared by all
// four processes of a mix.
type SharedPageRow struct {
	Config      string
	IPC         float64
	OffPkgGB    float64
	AliasHits   uint64
	NCAccesses  uint64
	L3HitRate   float64
	ColdFills   uint64
	TagOrAliasB int64 // on-die tag bytes, or alias-table bytes (paper scale)
}

// RunSharedPages runs the Section 6 shared-page study: every program of a
// mix spends `sharedFrac` of its page visits in a common shared region
// (library/kernel pages). Three configurations are compared: the SRAM-tag
// baseline (physical indexing shares naturally), the tagless default
// (shared pages marked non-cacheable, Section 3.5), and the tagless cache
// with the alias table (Section 6).
func RunSharedPages(ctx context.Context, o Options, mix string, sharedFrac float64) ([]SharedPageRow, error) {
	if mix == "" {
		mix = "MIX1"
	}
	if sharedFrac <= 0 {
		sharedFrac = 0.15
	}
	type variant struct {
		name   string
		design Design
		alias  bool
	}
	variants := []variant{
		{"SRAM (PA indexing shares naturally)", SRAMTag, false},
		{"cTLB (shared pages non-cacheable)", Tagless, false},
		{"cTLB (PA->CA alias table)", Tagless, true},
	}
	// Each cell runs the mix with modified per-core profiles (shared
	// fractions), which no workload name resolves to: the jobs carry the
	// built workload, and the trace digest in their keys covers the
	// modified profiles. They sweep in-process even with a Server, since
	// the wire names workloads.
	jobs := make([]Job, len(variants))
	for i, v := range variants {
		w, err := system.Mix(mix, o.Shift, o.Seed)
		if err != nil {
			return nil, err
		}
		for c := range w.PerCore {
			w.PerCore[c].SharedFrac = sharedFrac
		}
		oo := o
		oo.SharedAliasTable = v.alias
		jobs[i] = Job{Design: v.design, Workload: w.Name, Options: oo, built: &w}
	}
	res, err := sweepRun(ctx, jobs, o.sweepOptions())
	if err != nil {
		return nil, err
	}
	var rows []SharedPageRow
	for i, v := range variants {
		r := res[i]
		row := SharedPageRow{
			Config:     v.name,
			IPC:        r.IPC,
			OffPkgGB:   float64(r.OffPkgBytes) / 1e9,
			AliasHits:  r.Ctrl.AliasHits,
			NCAccesses: r.NCAccesses,
			L3HitRate:  r.L3HitRate,
			ColdFills:  r.Ctrl.ColdFills,
		}
		cfg := configFor(v.design, o)
		switch {
		case v.design == SRAMTag:
			row.TagOrAliasB = config.TagParamsFor(cfg.CacheSize << o.Shift).TagBytes
		case v.alias:
			// One 8-byte PPN->CA entry per cached page, at paper scale.
			row.TagOrAliasB = (int64(cfg.CachePages()) << o.Shift) * 8
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HotFilterRow is one threshold of the online hot-page-filter study (the
// CHOP-style mechanism the paper cites as complementary in Section 3.5).
type HotFilterRow struct {
	Threshold  int // 0 = filter disabled
	IPC        float64
	OffPkgGB   float64
	ColdFills  uint64
	NCAccesses uint64
}

// RunHotFilter sweeps the online hot-page-filter threshold on a
// low-reuse workload: higher thresholds keep more cold pages out of the
// cache, trading block-granularity off-package accesses for avoided
// page-granularity over-fetch.
func RunHotFilter(ctx context.Context, o Options, workload string, thresholds []int) ([]HotFilterRow, error) {
	if workload == "" {
		workload = "GemsFDTD"
	}
	if len(thresholds) == 0 {
		thresholds = []int{0, 4, 16, 64}
	}
	jobs := make([]Job, 0, len(thresholds))
	for _, th := range thresholds {
		oo := o
		oo.HotFilterThreshold = th
		jobs = append(jobs, Job{Design: Tagless, Workload: workload, Options: oo})
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var rows []HotFilterRow
	for i, th := range thresholds {
		r := res[i]
		rows = append(rows, HotFilterRow{
			Threshold:  th,
			IPC:        r.IPC,
			OffPkgGB:   float64(r.OffPkgBytes) / 1e9,
			ColdFills:  r.Ctrl.ColdFills,
			NCAccesses: r.NCAccesses,
		})
	}
	return rows, nil
}

// SuperpageRow is one configuration of the Section 6 superpage study.
type SuperpageRow struct {
	Workload    string
	Config      string // "4KB pages", "2MB superpages", "2MB + NC singletons"
	IPC         float64
	TLBMissRate float64
	OffPkgGB    float64
	ColdFills   uint64
	L3Latency   float64
}

// RunSuperpages runs the Section 6 superpage study: raising the caching
// granularity to 2MB-equivalent regions extends the cTLB reach and cuts
// walk counts, but amplifies over-fetch for low-locality programs — the
// judicious-application trade-off the paper describes. Low-reuse pages are
// always non-cacheable under superpages (the paper's safety valve).
func RunSuperpages(ctx context.Context, o Options, workloads []string) ([]SuperpageRow, error) {
	if len(workloads) == 0 {
		// One high-spatial-locality streaming program and one
		// pointer-chasing program with poor within-region locality.
		workloads = []string{"lbm", "mcf", "GemsFDTD"}
	}
	osp := o
	osp.Superpages = true
	jobs := make([]Job, 0, 2*len(workloads))
	for _, wl := range workloads {
		jobs = append(jobs,
			Job{Design: Tagless, Workload: wl, Options: o},
			Job{Design: Tagless, Workload: wl, Options: osp})
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var rows []SuperpageRow
	for i, wl := range workloads {
		base, sp := res[2*i], res[2*i+1]
		rows = append(rows,
			SuperpageRow{Workload: wl, Config: "4KB pages", IPC: base.IPC,
				TLBMissRate: base.TLBMissRate, OffPkgGB: float64(base.OffPkgBytes) / 1e9,
				ColdFills: base.Ctrl.ColdFills, L3Latency: base.AvgL3Latency},
			SuperpageRow{Workload: wl, Config: "2MB superpages", IPC: sp.IPC,
				TLBMissRate: sp.TLBMissRate, OffPkgGB: float64(sp.OffPkgBytes) / 1e9,
				ColdFills: sp.Ctrl.ColdFills, L3Latency: sp.AvgL3Latency},
		)
	}
	return rows, nil
}

// TLBReachRow is one point of the victim-cache study: how much of the
// tagless cache's traffic is served inside the cTLB reach versus rescued
// from the victim region (Section 3.1's split of the cache space).
type TLBReachRow struct {
	L2TLBEntries  int
	IPC           float64
	TLBMissRate   float64
	VictimHits    uint64
	ColdFills     uint64
	VictimHitFrac float64 // victim hits / cTLB misses with cacheable pages
}

// RunTLBReach sweeps the L2 TLB capacity to show the paper's premise: the
// cache region beyond the TLB reach works as a victim cache, so shrinking
// the TLB trades pure cTLB hits for victim hits — not for misses.
func RunTLBReach(ctx context.Context, o Options, workload string, entries []int) ([]TLBReachRow, error) {
	if workload == "" {
		workload = "mcf"
	}
	if len(entries) == 0 {
		entries = []int{128, 256, 512, 1024}
	}
	jobs := make([]Job, 0, len(entries))
	for _, n := range entries {
		oo := o
		oo.L2TLBEntries = n
		jobs = append(jobs, Job{Design: Tagless, Workload: workload, Options: oo})
	}
	res, err := runJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	var rows []TLBReachRow
	for i, n := range entries {
		r := res[i]
		row := TLBReachRow{
			L2TLBEntries: n,
			IPC:          r.IPC,
			TLBMissRate:  r.TLBMissRate,
			VictimHits:   r.Ctrl.VictimHits,
			ColdFills:    r.Ctrl.ColdFills,
		}
		if d := r.Ctrl.VictimHits + r.Ctrl.ColdFills; d > 0 {
			row.VictimHitFrac = float64(r.Ctrl.VictimHits) / float64(d)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FairnessRow reports multiprogrammed quality metrics for one design on
// one mix: weighted speedup (throughput) and harmonic speedup (fairness),
// both against each program running alone on the same configuration.
type FairnessRow struct {
	Design           Design
	MixIPC           float64
	WeightedSpeedup  float64 // sum of per-program IPC_mix / IPC_alone
	HarmonicSpeedup  float64 // N / sum(IPC_alone / IPC_mix)
	PerProgSlowdowns []float64
}

// RunFairness measures weighted and harmonic speedups for a mix across the
// cache designs, the standard multiprogrammed methodology complementing
// the paper's aggregate IPC bars.
func RunFairness(ctx context.Context, o Options, mix string) ([]FairnessRow, error) {
	if mix == "" {
		mix = "MIX5"
	}
	progs, ok := trace.Mixes()[mix]
	if !ok {
		return nil, fmt.Errorf("taglessdram: unknown mix %q", mix)
	}
	designs := []Design{NoL3, SRAMTag, Tagless}
	mixJobs := make([]Job, len(designs))
	for i, d := range designs {
		mixJobs[i] = Job{Design: d, Workload: mix, Options: o}
	}
	mixRes, err := runJobs(ctx, o, mixJobs)
	if err != nil {
		return nil, err
	}
	// Alone runs: every program of the mix on a single core, per design,
	// seeded as its core of the mix is. No name resolves to a one-core
	// program, so these jobs carry the built workload and sweep
	// in-process, like the shared-page study's.
	var alones []Job
	for _, d := range designs {
		for i, prog := range progs {
			w, err := system.SingleProgramOn(prog, 1, o.Shift, o.Seed+uint64(i)*7919)
			if err != nil {
				return nil, err
			}
			alones = append(alones, Job{Design: d, Workload: w.Name, Options: o, built: &w})
		}
	}
	aloneRes, err := sweepRun(ctx, alones, o.sweepOptions())
	if err != nil {
		return nil, err
	}
	var rows []FairnessRow
	for di, d := range designs {
		mr := mixRes[di]
		row := FairnessRow{Design: d, MixIPC: mr.IPC}
		var invSum float64
		for i := range progs {
			alone := aloneRes[di*len(progs)+i]
			if i >= len(mr.PerCoreIPC) || alone.IPC == 0 {
				continue
			}
			s := mr.PerCoreIPC[i] / alone.IPC
			row.WeightedSpeedup += s
			if s > 0 {
				invSum += 1 / s
			}
			row.PerProgSlowdowns = append(row.PerProgSlowdowns, s)
		}
		if invSum > 0 {
			row.HarmonicSpeedup = float64(len(row.PerProgSlowdowns)) / invSum
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Component latencies for the analytic model, derived from Table 4 at
// 3GHz. They use the average of open- and closed-row service.
const (
	rrBlockInPkg  = 75
	rrBlockOffPkg = 130
	rrPageOffPkg  = 1100
	rrGIPT        = 210
)

// GeoMeanNormIPC aggregates rows' normalized IPC for one design (the
// paper's geomean bars).
func GeoMeanNormIPC(rows []DesignRow, d Design) float64 {
	var xs []float64
	for _, r := range rows {
		if r.Design == d {
			xs = append(xs, r.NormIPC)
		}
	}
	return stats.GeoMean(xs)
}

// GeoMeanNormEDP aggregates rows' normalized EDP for one design.
func GeoMeanNormEDP(rows []DesignRow, d Design) float64 {
	var xs []float64
	for _, r := range rows {
		if r.Design == d {
			xs = append(xs, r.NormEDP)
		}
	}
	return stats.GeoMean(xs)
}
