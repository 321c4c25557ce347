package taglessdram

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// quickOpts keeps root-package tests fast: small budgets, default scale.
func quickOpts() Options {
	o := DefaultOptions()
	o.Warmup, o.Measure = 250_000, 250_000
	return o
}

func TestDefaultOptionsValid(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidate(t *testing.T) {
	o := DefaultOptions()
	o.Measure = 0
	if err := o.Validate(); err == nil {
		t.Error("zero measure accepted")
	}
	o = DefaultOptions()
	o.Shift = 20
	if err := o.Validate(); err == nil {
		t.Error("absurd shift accepted")
	}
	// At the default shift the off-package memory is 8GB>>6 = 128MB:
	// 32768 pages.
	for _, c := range []struct {
		name string
		edit func(*Options)
		ok   bool
	}{
		{"cache as large as memory", func(o *Options) { o.CacheMB = 128 }, true},
		{"cache larger than memory", func(o *Options) { o.CacheMB = 129 }, false},
		{"L2 TLB mapping every page", func(o *Options) { o.L2TLBEntries = 32768 }, true},
		{"L2 TLB larger than memory", func(o *Options) { o.L2TLBEntries = 32769 }, false},
		{"negative CacheMB", func(o *Options) { o.CacheMB = -1 }, false},
		{"negative L2TLBEntries", func(o *Options) { o.L2TLBEntries = -1 }, false},
		{"negative Alpha", func(o *Options) { o.Alpha = -1 }, false},
		{"negative MSHRs", func(o *Options) { o.MSHRs = -1 }, false},
		{"negative NCAccessThreshold", func(o *Options) { o.NCAccessThreshold = -1 }, false},
		{"negative HotFilterThreshold", func(o *Options) { o.HotFilterThreshold = -1 }, false},
	} {
		o := DefaultOptions()
		c.edit(&o)
		if err := o.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %t", c.name, err, c.ok)
		}
	}
}

func TestWorkloadLists(t *testing.T) {
	if len(SPECWorkloads()) != 11 {
		t.Errorf("SPEC workloads = %d, want 11", len(SPECWorkloads()))
	}
	if len(MixWorkloads()) != 8 {
		t.Errorf("mixes = %d, want 8", len(MixWorkloads()))
	}
	if len(PARSECWorkloads()) != 4 {
		t.Errorf("PARSEC workloads = %d, want 4", len(PARSECWorkloads()))
	}
	if len(Designs()) != 5 {
		t.Errorf("designs = %d, want 5", len(Designs()))
	}
}

func TestRunEachWorkloadKind(t *testing.T) {
	o := quickOpts()
	for _, wl := range []string{"sphinx3", "MIX1", "streamcluster"} {
		r, err := Run(Tagless, wl, o)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC = %v", wl, r.IPC)
		}
		if r.Design != Tagless {
			t.Errorf("%s: design = %v", wl, r.Design)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(Tagless, "nonesuch", quickOpts()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunCacheSizeOverride(t *testing.T) {
	o := quickOpts()
	o.CacheMB = 4
	r, err := Run(Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Fatal("override run failed")
	}
}

func TestRunZeroWarmupDefaults(t *testing.T) {
	o := quickOpts()
	o.Warmup = 0
	if _, err := Run(NoL3, "sphinx3", o); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable6MatchesPaper(t *testing.T) {
	rows := RunTable6()
	if len(rows) != 4 {
		t.Fatalf("table 6 rows = %d", len(rows))
	}
	last := rows[3]
	if last.CacheSize != 1<<30 || last.LatencyCyc != 11 {
		t.Fatalf("1GB row = %+v", last)
	}
}

func TestRunTable1CasesPresent(t *testing.T) {
	rows, err := RunTable1(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("table 1 rows = %d, want 5", len(rows))
	}
	// The pure-hit case must dominate and cost zero.
	if rows[0].TLB != "Hit" || rows[0].MeanCycles != 0 || rows[0].Count == 0 {
		t.Fatalf("hit/hit row = %+v", rows[0])
	}
}

func TestRunFigure13Gains(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 600_000, 600_000
	row, err := RunFigure13(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if row.NCAccesses == 0 {
		t.Fatal("NC case study produced no NC accesses")
	}
	if row.NCOffPkgB >= row.BaseOffPkgB {
		t.Fatalf("NC pages should cut off-package bytes: %d vs %d",
			row.NCOffPkgB, row.BaseOffPkgB)
	}
}

func TestRunFigure11BothPolicies(t *testing.T) {
	rows, err := RunFigure11(context.Background(), quickOpts(), []string{"MIX1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].FIFOIPC <= 0 || rows[0].LRUIPC <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestRunFigure10Shapes(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 750_000, 750_000
	rows, err := RunFigure10(context.Background(), o, []string{"MIX5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 sizes", len(rows))
	}
	// The paper's crossover: at the smallest cache both designs lose to
	// BI; at the largest they recover substantially.
	small, large := rows[0], rows[2]
	if small.CacheMB != 4 || large.CacheMB != 16 {
		t.Fatalf("sizes = %d..%d", small.CacheMB, large.CacheMB)
	}
	if small.CTLBNorm >= large.CTLBNorm {
		t.Errorf("tagless should improve with cache size: %.2f -> %.2f",
			small.CTLBNorm, large.CTLBNorm)
	}
}

func TestRunTable2Rows(t *testing.T) {
	rows, err := RunTable2(context.Background(), quickOpts(), "MIX1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (block, banshee, page, tagless)", len(rows))
	}
	alloy, banshee, sram, ctlb := rows[0], rows[1], rows[2], rows[3]
	if alloy.TagInDRAMMB != 128 {
		t.Errorf("block-based in-DRAM tags = %vMB, want 128 (paper scale)", alloy.TagInDRAMMB)
	}
	if banshee.TagStorageMB != 0 || banshee.TagInDRAMMB != 2 {
		t.Errorf("banshee tag storage = %v/%vMB, want 0/2 (8B per page, paper scale)",
			banshee.TagStorageMB, banshee.TagInDRAMMB)
	}
	if sram.TagStorageMB != 4 {
		t.Errorf("SRAM tag storage = %vMB, want 4 (paper scale)", sram.TagStorageMB)
	}
	if ctlb.TagStorageMB != 0 || ctlb.TagInDRAMMB != 0 {
		t.Errorf("tagless tag storage = %v/%vMB, want 0", ctlb.TagStorageMB, ctlb.TagInDRAMMB)
	}
	if ctlb.L3HitRate != 1 {
		t.Errorf("tagless hit rate = %v", ctlb.L3HitRate)
	}
	if alloy.L3HitRate >= sram.L3HitRate {
		t.Errorf("block-based hit rate %v should trail page-based %v (Table 2)",
			alloy.L3HitRate, sram.L3HitRate)
	}
}

func TestRunAMATCheck(t *testing.T) {
	rows, err := RunAMATCheck(context.Background(), quickOpts(), []string{"sphinx3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.ModelSRAMLat <= 0 || r.ModelCTLBLat <= 0 {
		t.Fatalf("model produced non-positive latencies: %+v", r)
	}
	// The closed forms exclude queueing: they must lower-bound the sim.
	if r.ModelSRAMLat > r.SimSRAMLat*1.05 || r.ModelCTLBLat > r.SimCTLBLat*1.05 {
		t.Fatalf("model exceeds simulation: %+v", r)
	}
}

func TestGeoMeanHelpers(t *testing.T) {
	rows := []DesignRow{
		{Design: Tagless, NormIPC: 2, NormEDP: 0.5},
		{Design: Tagless, NormIPC: 8, NormEDP: 2},
		{Design: NoL3, NormIPC: 1, NormEDP: 1},
	}
	if got := GeoMeanNormIPC(rows, Tagless); got != 4 {
		t.Errorf("geomean IPC = %v, want 4", got)
	}
	if got := GeoMeanNormEDP(rows, Tagless); got != 1 {
		t.Errorf("geomean EDP = %v, want 1", got)
	}
}

func TestRunSharedPagesStudy(t *testing.T) {
	o := quickOpts()
	rows, err := RunSharedPages(context.Background(), o, "MIX1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	ncRow, aliasRow := rows[1], rows[2]
	if ncRow.NCAccesses == 0 {
		t.Error("NC variant shows no NC accesses")
	}
	if aliasRow.NCAccesses != 0 {
		t.Error("alias variant still bypasses shared pages")
	}
	if aliasRow.L3HitRate != 1 {
		t.Errorf("alias variant hit rate = %v, want 1", aliasRow.L3HitRate)
	}
}

// TestRunSharedPagesRefusesNaN: a NaN shared fraction is not "unset"
// (NaN <= 0 is false), so it reaches the per-core profiles, whose
// validation must refuse it before any machine is built.
func TestRunSharedPagesRefusesNaN(t *testing.T) {
	_, err := RunSharedPages(context.Background(), quickOpts(), "MIX1", math.NaN())
	if err == nil || !strings.Contains(err.Error(), "shared fraction out of [0,1]") {
		t.Fatalf("RunSharedPages(NaN) error = %v, want the profile's shared-fraction check", err)
	}
}

func TestRunHotFilterSweep(t *testing.T) {
	o := quickOpts()
	rows, err := RunHotFilter(context.Background(), o, "GemsFDTD", []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].NCAccesses != 0 {
		t.Error("disabled filter produced NC accesses")
	}
	if rows[1].NCAccesses == 0 {
		t.Error("enabled filter produced no NC accesses")
	}
}

func TestRunSuperpagesStudy(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 600_000, 600_000
	rows, err := RunSuperpages(context.Background(), o, []string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, sp := rows[0], rows[1]
	if sp.TLBMissRate >= base.TLBMissRate {
		t.Errorf("superpages did not extend TLB reach: %.4f vs %.4f",
			sp.TLBMissRate, base.TLBMissRate)
	}
}

func TestRunTLBReachStudy(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 600_000, 600_000
	rows, err := RunTLBReach(context.Background(), o, "mcf", []int{128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, big := rows[0], rows[1]
	if small.TLBMissRate <= big.TLBMissRate {
		t.Errorf("smaller TLB should miss more: %.4f vs %.4f",
			small.TLBMissRate, big.TLBMissRate)
	}
	if small.VictimHits <= big.VictimHits {
		t.Errorf("victim cache should absorb the smaller TLB's misses: %d vs %d",
			small.VictimHits, big.VictimHits)
	}
}

func TestRefreshOptionSlowsRun(t *testing.T) {
	o := quickOpts()
	base, err := Run(Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	o.Refresh = true
	ref, err := Run(Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	if ref.IPC > base.IPC*1.001 {
		t.Errorf("refresh made the machine faster: %.3f vs %.3f", ref.IPC, base.IPC)
	}
}

func TestAlphaOptionApplies(t *testing.T) {
	o := quickOpts()
	o.Alpha = 8
	o.CacheMB = 2
	r, err := Run(Tagless, "milc", o)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Fatal("alpha-8 run failed")
	}
}

// TestHeadlineClaimQuick verifies at reduced budget the abstract's ordering
// for a favorable workload: tagless beats SRAM-tag on IPC and EDP.
func TestHeadlineClaimQuick(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 1_000_000, 1_000_000
	rs, err := Run(SRAMTag, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(Tagless, "sphinx3", o)
	if err != nil {
		t.Fatal(err)
	}
	if rt.IPC <= rs.IPC {
		t.Errorf("tagless IPC %.3f not above SRAM-tag %.3f", rt.IPC, rs.IPC)
	}
	if rt.EDPJs >= rs.EDPJs {
		t.Errorf("tagless EDP %.3g not below SRAM-tag %.3g", rt.EDPJs, rs.EDPJs)
	}
}

func TestRunFairnessMetrics(t *testing.T) {
	o := quickOpts()
	rows, err := RunFairness(context.Background(), o, "MIX1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WeightedSpeedup <= 0 || r.WeightedSpeedup > 4 {
			t.Errorf("%v: weighted speedup = %v out of (0,4]", r.Design, r.WeightedSpeedup)
		}
		if r.HarmonicSpeedup <= 0 || r.HarmonicSpeedup > 1.5 {
			t.Errorf("%v: harmonic speedup = %v implausible", r.Design, r.HarmonicSpeedup)
		}
		if len(r.PerProgSlowdowns) != 4 {
			t.Errorf("%v: per-program entries = %d", r.Design, len(r.PerProgSlowdowns))
		}
	}
	if _, err := RunFairness(context.Background(), o, "MIX99"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	o := DefaultOptions()
	o.Measure = 0
	if _, err := Run(Tagless, "sphinx3", o); err == nil {
		t.Error("Run accepted Measure = 0")
	}
	o = DefaultOptions()
	o.Shift = 20
	if _, err := Run(Tagless, "sphinx3", o); err == nil {
		t.Error("Run accepted Shift = 20")
	}
	o = DefaultOptions()
	o.Workers = -1
	if _, err := Run(Tagless, "sphinx3", o); err == nil {
		t.Error("Run accepted Workers = -1")
	}
}

// TestParallelSweepMatchesSerial is the tentpole's determinism invariant:
// an N-way parallel sweep must produce bit-identical rows to the serial
// path for the same seeds, because every job builds an isolated machine.
// Run under -race this also proves the jobs share no mutable state.
func TestParallelSweepMatchesSerial(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 60_000, 60_000
	workloads := []string{"sphinx3", "libquantum"}

	o.Workers = 1
	serial, err := runDesignGrid(context.Background(), workloads, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	parallel, err := runDesignGrid(context.Background(), workloads, o)
	if err != nil {
		t.Fatal(err)
	}
	// Workers is part of Options (and so of each row's job options), but
	// the rows themselves carry only metrics — compare them exactly.
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) != len(workloads)*len(Designs()) {
		t.Fatalf("rows = %d, want %d", len(serial), len(workloads)*len(Designs()))
	}
}

// TestSweepFacade exercises the exported Sweep entry point: ordering,
// error tagging with the failing (workload, design) pair, and the
// isolation of per-job options.
func TestSweepFacade(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 60_000, 60_000
	oNC := o
	oNC.NCAccessThreshold = 32
	jobs := []Job{
		{Design: NoL3, Workload: "sphinx3", Options: o},
		{Design: Tagless, Workload: "sphinx3", Options: oNC},
	}
	res, err := Sweep(context.Background(), jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	if res[0].IPC <= 0 || res[1].IPC <= 0 {
		t.Fatalf("non-positive IPCs: %v, %v", res[0].IPC, res[1].IPC)
	}

	jobs = append(jobs, Job{Design: Tagless, Workload: "nosuchprogram", Options: o})
	_, err = Sweep(context.Background(), jobs, 2)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "nosuchprogram/cTLB") {
		t.Errorf("error %q does not name the failing job", err)
	}
}

// TestSweepProgressThroughRunners checks the Options.Progress plumbing:
// a figure runner reports one completion per simulation.
func TestSweepProgressThroughRunners(t *testing.T) {
	o := quickOpts()
	o.Warmup, o.Measure = 60_000, 60_000
	o.Workers = 2
	var mu sync.Mutex
	var calls []int
	o.Progress = func(p SweepProgress) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, p.Done)
	}
	entries := []int{128, 512}
	if _, err := RunTLBReach(context.Background(), o, "mcf", entries); err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(entries) {
		t.Fatalf("progress fired %d times, want %d", len(calls), len(entries))
	}
	if calls[len(calls)-1] != len(entries) {
		t.Fatalf("final Done = %d, want %d", calls[len(calls)-1], len(entries))
	}
}
