package system

import (
	"strings"
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/trace"
)

// run is a helper building and running one machine.
func run(t *testing.T, cfg *config.SystemConfig, w Workload, warm, meas uint64) *Result {
	t.Helper()
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(warm, meas)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWorkloadBuilders(t *testing.T) {
	w, err := SingleProgram("sphinx3", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.PerCore) != 4 || w.MultiThreaded {
		t.Fatalf("single-program workload = %+v", w)
	}
	w, err = Mix("MIX5", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.PerCore) != 4 {
		t.Fatalf("mix has %d programs", len(w.PerCore))
	}
	names := []string{w.PerCore[0].Name, w.PerCore[1].Name, w.PerCore[2].Name, w.PerCore[3].Name}
	if strings.Join(names, "-") != "mcf-soplex-GemsFDTD-lbm" {
		t.Fatalf("MIX5 programs = %v", names)
	}
	w, err = MultiThread("streamcluster", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !w.MultiThreaded || len(w.PerCore) != 1 {
		t.Fatalf("multi-thread workload = %+v", w)
	}
}

func TestWorkloadBuilderErrors(t *testing.T) {
	if _, err := SingleProgram("nonesuch", 6, 1); err == nil {
		t.Error("unknown program accepted")
	}
	if _, err := Mix("MIX99", 6, 1); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := MultiThread("nonesuch", 6, 1); err == nil {
		t.Error("unknown parsec accepted")
	}
	if _, err := SingleProgramOn("sphinx3", 0, 6, 1); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestWorkloadValidate(t *testing.T) {
	var w Workload
	if err := w.Validate(); err == nil {
		t.Error("empty workload accepted")
	}
	w = Workload{Name: "x"}
	if err := w.Validate(); err == nil {
		t.Error("workload with no programs accepted")
	}
	p, _ := trace.ProfileByName("sphinx3")
	w = Workload{Name: "x", PerCore: []trace.Profile{p, p}, MultiThreaded: true}
	if err := w.Validate(); err == nil {
		t.Error("multi-threaded workload with two profiles accepted")
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	p, _ := trace.ProfileByName("sphinx3")
	w := Workload{Name: "too-many", PerCore: []trace.Profile{p, p, p, p, p}, Seed: 1}
	if _, err := New(cfg, w); err == nil {
		t.Error("5 programs on 4 cores accepted")
	}
	bad := scaledConfig(config.Tagless, 6)
	bad.CPU.Cores = 0
	w2, _ := SingleProgram("sphinx3", 6, 1)
	if _, err := New(bad, w2); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunRequiresMeasure(t *testing.T) {
	cfg := scaledConfig(config.NoL3, 6)
	w, _ := SingleProgram("sphinx3", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10, 0); err == nil {
		t.Fatal("zero measure accepted")
	}
}

// TestRunRejectsOverflow guards the phase-target arithmetic: warmup+measure
// is an absolute instruction count, and a wrapping sum would silently run a
// tiny (or endless) measured phase instead of the requested one.
func TestRunRejectsOverflow(t *testing.T) {
	cfg := scaledConfig(config.NoL3, 6)
	w, _ := SingleProgram("sphinx3", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(^uint64(0), 2); err == nil {
		t.Fatal("overflowing warmup+measure accepted")
	}
	if err := m.Warmup(10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasureSampled(^uint64(0), SampleSpec{WindowRefs: 100, PeriodRefs: 1000}); err == nil {
		t.Fatal("overflowing sampled measure accepted")
	}
}

// TestHeadlineOrdering pins the paper's central claim at reduced budgets:
// the tagless cache outperforms the SRAM-tag cache, both beat the NoL3
// baseline, and Ideal bounds everything (Figure 7 shape, sphinx3).
func TestHeadlineOrdering(t *testing.T) {
	ipc := map[config.L3Design]float64{}
	for _, d := range config.AllDesigns() {
		r := runDesign(t, d, "sphinx3", 1500000)
		ipc[d] = r.IPC
	}
	if !(ipc[config.NoL3] < ipc[config.SRAMTag]) {
		t.Errorf("SRAM (%.2f) should beat NoL3 (%.2f)", ipc[config.SRAMTag], ipc[config.NoL3])
	}
	if !(ipc[config.SRAMTag] < ipc[config.Tagless]) {
		t.Errorf("tagless (%.2f) should beat SRAM-tag (%.2f)", ipc[config.Tagless], ipc[config.SRAMTag])
	}
	if !(ipc[config.Tagless] < ipc[config.Ideal]*1.02) {
		t.Errorf("Ideal (%.2f) should bound tagless (%.2f)", ipc[config.Ideal], ipc[config.Tagless])
	}
}

// TestTaglessGuaranteedHit: with the tagless design, every L3 access after
// a cTLB hit lands in-package — the design's defining property.
func TestTaglessGuaranteedHit(t *testing.T) {
	r := runDesign(t, config.Tagless, "sphinx3", 400000)
	if r.L3HitRate != 1.0 {
		t.Fatalf("tagless L3 hit rate = %v, want exactly 1 (cTLB hit guarantees a cache hit)", r.L3HitRate)
	}
}

func TestTaglessLowerL3LatencyThanSRAM(t *testing.T) {
	rs := runDesign(t, config.SRAMTag, "sphinx3", 1500000)
	rt := runDesign(t, config.Tagless, "sphinx3", 1500000)
	if rt.AvgL3Latency >= rs.AvgL3Latency {
		t.Fatalf("tagless L3 latency %.1f not below SRAM-tag %.1f (Figure 8)",
			rt.AvgL3Latency, rs.AvgL3Latency)
	}
}

func TestTaglessBetterEDP(t *testing.T) {
	rs := runDesign(t, config.SRAMTag, "sphinx3", 1500000)
	rt := runDesign(t, config.Tagless, "sphinx3", 1500000)
	if rt.EDPJs >= rs.EDPJs {
		t.Fatalf("tagless EDP %.3g not below SRAM-tag %.3g", rt.EDPJs, rs.EDPJs)
	}
}

func TestControllerInvariantsAfterRun(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	w, _ := SingleProgram("mcf", 6, 3) // exceeds TLB reach, causes evictions
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(400000, 400000); err != nil {
		t.Fatal(err)
	}
	if err := m.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVictimHitsOccur(t *testing.T) {
	// mcf's per-copy footprint exceeds the TLB reach, so pages fall out
	// of the cTLB and are re-found in the victim cache.
	r := runDesign(t, config.Tagless, "mcf", 1000000)
	if r.Ctrl.VictimHits == 0 {
		t.Fatal("no victim hits despite footprint exceeding TLB reach")
	}
	if r.Ctrl.ColdFills == 0 {
		t.Fatal("no cold fills at all")
	}
}

func TestEvictionsUnderPressure(t *testing.T) {
	// milc's aggregate footprint exceeds the cache: the free queue and
	// eviction daemon must be active, and α must be maintained.
	cfg := scaledConfig(config.Tagless, 6)
	cfg.CacheSize = 2 * config.MB // 512 pages: footprint far exceeds it
	w, _ := SingleProgram("milc", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(1000000, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ctrl.Evictions == 0 {
		t.Fatal("no evictions despite footprint exceeding cache capacity")
	}
	if m.ctrl.FreeBlocks() < cfg.Tagless.Alpha {
		t.Fatalf("free blocks %d below α=%d after run", m.ctrl.FreeBlocks(), cfg.Tagless.Alpha)
	}
	if err := m.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWritebacksReachOffPackage(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	cfg.CacheSize = 2 * config.MB
	w, _ := SingleProgram("milc", 6, 1) // write fraction 0.30 + evictions
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(1000000, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ctrl.Writebacks == 0 {
		t.Fatal("no dirty write-backs despite stores and evictions")
	}
}

func TestMultiThreadedSharesPageTable(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	w, _ := MultiThread("streamcluster", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// All cores share one page table (no aliasing — Section 3.5).
	pt := m.cores[0].pt
	for _, cc := range m.cores {
		if cc.pt != pt {
			t.Fatal("multi-threaded cores have private page tables")
		}
	}
	if _, err := m.Run(200000, 200000); err != nil {
		t.Fatal(err)
	}
}

func TestMixHasPrivateAddressSpaces(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	w, _ := Mix("MIX1", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[interface{}]bool{}
	for _, cc := range m.cores {
		if seen[cc.pt] {
			t.Fatal("mix cores share a page table")
		}
		seen[cc.pt] = true
	}
}

func TestNonCacheableClassification(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	cfg.Tagless.NCAccessThreshold = 32
	w, _ := SingleProgram("GemsFDTD", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(600000, 600000)
	if err != nil {
		t.Fatal(err)
	}
	if r.NCAccesses == 0 {
		t.Fatal("no non-cacheable accesses despite classification enabled")
	}
	if r.Ctrl.NonCacheable == 0 {
		t.Fatal("handler never saw a non-cacheable page")
	}
}

func TestNCReducesOffPackageTraffic(t *testing.T) {
	base := runDesign(t, config.Tagless, "GemsFDTD", 1000000)
	cfg := scaledConfig(config.Tagless, 6)
	cfg.Tagless.NCAccessThreshold = 32
	w, _ := SingleProgram("GemsFDTD", 6, 1)
	r := run(t, cfg, w, 1000000, 1000000)
	if r.OffPkgBytes >= base.OffPkgBytes {
		t.Fatalf("NC pages should cut off-package traffic: %d vs %d",
			r.OffPkgBytes, base.OffPkgBytes)
	}
}

func TestLRUPolicyRuns(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	cfg.CacheSize = 2 * config.MB
	cfg.Tagless.Policy = config.LRU
	w, _ := SingleProgram("milc", 6, 1)
	r := run(t, cfg, w, 500000, 500000)
	if r.IPC <= 0 || r.Ctrl.Evictions == 0 {
		t.Fatalf("LRU run: IPC=%v evictions=%d", r.IPC, r.Ctrl.Evictions)
	}
}

func TestSynchronousEvictionAblationSlower(t *testing.T) {
	mk := func(sync bool) float64 {
		cfg := scaledConfig(config.Tagless, 6)
		cfg.Tagless.SynchronousEviction = sync
		w, _ := SingleProgram("milc", 6, 1)
		return run(t, cfg, w, 800000, 800000).IPC
	}
	async, syncIPC := mk(false), mk(true)
	if syncIPC > async*1.01 {
		t.Fatalf("synchronous eviction (%.3f) should not beat async (%.3f)", syncIPC, async)
	}
}

func TestCachedGIPTAblationFaster(t *testing.T) {
	mk := func(cached bool) float64 {
		cfg := scaledConfig(config.Tagless, 6)
		cfg.Tagless.CachedGIPT = cached
		w, _ := SingleProgram("milc", 6, 1)
		return run(t, cfg, w, 800000, 800000).IPC
	}
	conservative, cached := mk(false), mk(true)
	if cached < conservative {
		t.Fatalf("cached GIPT (%.3f) should not be slower than conservative (%.3f)",
			cached, conservative)
	}
}

func TestBankInterleaveFraction(t *testing.T) {
	cfg := scaledConfig(config.BankInterleave, 6)
	w, _ := SingleProgram("sphinx3", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(400000, 400000)
	if err != nil {
		t.Fatal(err)
	}
	// 1GB of 9GB total: ≈1/9 of L3 accesses served in-package.
	if r.L3HitRate < 0.08 || r.L3HitRate > 0.15 {
		t.Fatalf("BI in-package fraction = %v, want ≈1/9", r.L3HitRate)
	}
}

func TestIdealAllInPackage(t *testing.T) {
	r := runDesign(t, config.Ideal, "sphinx3", 400000)
	if r.OffPkgBytes != 0 {
		t.Fatalf("Ideal moved %d bytes off-package", r.OffPkgBytes)
	}
	if r.L3HitRate != 1.0 {
		t.Fatalf("Ideal hit rate = %v", r.L3HitRate)
	}
}

func TestNoL3AllOffPackage(t *testing.T) {
	r := runDesign(t, config.NoL3, "sphinx3", 400000)
	if r.InPkgBytes != 0 {
		t.Fatalf("NoL3 moved %d bytes in-package", r.InPkgBytes)
	}
	if r.L3HitRate != 0 {
		t.Fatalf("NoL3 hit rate = %v", r.L3HitRate)
	}
}

func TestDeterminism(t *testing.T) {
	r1 := runDesign(t, config.Tagless, "sphinx3", 300000)
	r2 := runDesign(t, config.Tagless, "sphinx3", 300000)
	if r1.Cycles != r2.Cycles || r1.Instructions != r2.Instructions ||
		r1.L3Accesses != r2.L3Accesses || r1.Energy.TotalJ() != r2.Energy.TotalJ() {
		t.Fatalf("simulation not deterministic:\n%v\n%v", r1, r2)
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	w1, _ := SingleProgram("sphinx3", 6, 1)
	w2, _ := SingleProgram("sphinx3", 6, 99)
	r1 := run(t, cfg.Clone(), w1, 300000, 300000)
	r2 := run(t, cfg.Clone(), w2, 300000, 300000)
	if r1.Cycles == r2.Cycles {
		t.Fatal("different seeds produced identical cycle counts")
	}
}

func TestResultString(t *testing.T) {
	r := runDesign(t, config.Tagless, "sphinx3", 200000)
	s := r.String()
	for _, want := range []string{"sphinx3", "cTLB", "IPC", "EDP"} {
		if !strings.Contains(s, want) {
			t.Errorf("result string %q missing %q", s, want)
		}
	}
}

func TestPerCoreIPCs(t *testing.T) {
	r := runDesign(t, config.Tagless, "sphinx3", 300000)
	if len(r.PerCoreIPC) != 4 {
		t.Fatalf("per-core IPCs = %v, want 4 entries", r.PerCoreIPC)
	}
	for i, ipc := range r.PerCoreIPC {
		if ipc <= 0 {
			t.Errorf("core %d IPC = %v", i, ipc)
		}
	}
}

func TestEnergyBreakdownSane(t *testing.T) {
	r := runDesign(t, config.SRAMTag, "sphinx3", 400000)
	if r.Energy.CoreJ <= 0 || r.Energy.InPkgJ <= 0 || r.Energy.OffPkgJ <= 0 {
		t.Fatalf("breakdown = %+v", r.Energy)
	}
	if r.Energy.TagJ <= 0 {
		t.Fatal("SRAM-tag design must burn tag energy")
	}
	rt := runDesign(t, config.Tagless, "sphinx3", 400000)
	if rt.Energy.TagJ != 0 {
		t.Fatal("tagless design must burn zero tag energy")
	}
}

func TestMeasurementExcludesWarmup(t *testing.T) {
	// Doubling warmup must not change the measured instruction count.
	cfg := scaledConfig(config.Tagless, 6)
	w, _ := SingleProgram("sphinx3", 6, 1)
	r1 := run(t, cfg.Clone(), w, 200000, 300000)
	r2 := run(t, cfg.Clone(), w, 400000, 300000)
	diff := int64(r1.Instructions) - int64(r2.Instructions)
	if diff < 0 {
		diff = -diff
	}
	// Phase boundaries land mid-burst, so allow a per-core slop of one
	// trace record's worth of instructions.
	if diff > int64(r1.Instructions)/1000 {
		t.Fatalf("measured instructions differ: %d vs %d", r1.Instructions, r2.Instructions)
	}
}

func TestTLBMissRateReasonable(t *testing.T) {
	r := runDesign(t, config.Tagless, "sphinx3", 400000)
	if r.TLBMissRate <= 0 || r.TLBMissRate > 0.2 {
		t.Fatalf("TLB miss rate = %v", r.TLBMissRate)
	}
}

func TestAlloyBlockDesignRuns(t *testing.T) {
	r := runDesign(t, config.AlloyBlock, "sphinx3", 600000)
	if r.IPC <= 0 {
		t.Fatalf("IPC = %v", r.IPC)
	}
	// Block granularity: no page-sized over-fetch, so off-package traffic
	// stays near demand (well below the page caches under first touch).
	if r.L3HitRate >= 1 {
		t.Fatalf("direct-mapped block cache with 100%% hits is implausible: %v", r.L3HitRate)
	}
	if r.InPkgBytes == 0 {
		t.Fatal("alloy never touched in-package DRAM")
	}
}

func TestAlloyWorseHitRateThanPageCaches(t *testing.T) {
	// Table 2's "high hit ratio: bad" row for block-based caching.
	ra := runDesign(t, config.AlloyBlock, "sphinx3", 800000)
	rs := runDesign(t, config.SRAMTag, "sphinx3", 800000)
	if ra.L3HitRate >= rs.L3HitRate {
		t.Fatalf("block-based hit rate %.2f not below page-based %.2f",
			ra.L3HitRate, rs.L3HitRate)
	}
}

func TestResultMetricsRegistry(t *testing.T) {
	r := runDesign(t, config.Tagless, "sphinx3", 200000)
	metrics := r.Metrics()
	ipc, ok := metrics["ipc"]
	if !ok || ipc != r.IPC {
		t.Fatalf("metrics ipc = %v,%v", ipc, ok)
	}
	if metrics["l3.hit_rate"] != r.L3HitRate {
		t.Fatal("metrics hit rate mismatch")
	}
	if len(metrics) < 20 {
		t.Fatalf("only %d metrics", len(metrics))
	}
}

func TestMissKindAccounting(t *testing.T) {
	r := runDesign(t, config.Tagless, "mcf", 800000)
	var sum uint64
	for _, c := range r.MissKindCount {
		sum += c
	}
	if sum != r.TLBMisses {
		t.Fatalf("per-kind counts sum to %d, TLB misses %d", sum, r.TLBMisses)
	}
}

func TestOutOfMemorySurfacesAsError(t *testing.T) {
	// Shrink off-package DRAM until the frame allocator runs dry: the
	// simulation must fail with a descriptive error, not panic.
	cfg := scaledConfig(config.Tagless, 6)
	cfg.OffPkg.SizeBytes = 256 * config.PageSize // ~240 usable frames
	w, _ := SingleProgram("GemsFDTD", 6, 1)      // touches far more pages
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(200000, 200000)
	if err == nil {
		t.Fatal("out-of-memory run succeeded")
	}
	if !strings.Contains(err.Error(), "out of physical memory") {
		t.Fatalf("err = %v, want out-of-memory", err)
	}
}

func TestMSHROptionMatters(t *testing.T) {
	// A wider window changes behaviour (it may help by overlapping misses
	// or hurt by deepening DRAM queues ahead of dependent loads); the
	// knob must at least take effect and keep the simulation sound.
	mk := func(mshrs int) float64 {
		cfg := scaledConfig(config.NoL3, 6)
		cfg.CPU.MSHRs = mshrs
		w, _ := SingleProgram("milc", 6, 1)
		return run(t, cfg, w, 400000, 400000).IPC
	}
	narrow, wide := mk(1), mk(16)
	if narrow <= 0 || wide <= 0 {
		t.Fatalf("IPC = %v / %v", narrow, wide)
	}
	if narrow == wide {
		t.Fatalf("MSHR count had no effect: %v", narrow)
	}
}
