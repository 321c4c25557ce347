package system

import (
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/lat"
	"taglessdram/internal/mmu"
)

func superConfig() *config.SystemConfig {
	cfg := scaledConfig(config.Tagless, 6)
	cfg.Tagless.SuperpagePages = 8 // 2MB at paper scale
	return cfg
}

func TestSuperpagesExtendTLBReach(t *testing.T) {
	w, _ := SingleProgram("mcf", 6, 1)
	base := run(t, scaledConfig(config.Tagless, 6), w, 800000, 800000)
	w2, _ := SingleProgram("mcf", 6, 1)
	sp := run(t, superConfig(), w2, 800000, 800000)
	if sp.TLBMissRate >= base.TLBMissRate {
		t.Fatalf("superpages did not cut the cTLB miss rate: %.4f vs %.4f",
			sp.TLBMissRate, base.TLBMissRate)
	}
}

func TestSuperpagesGuaranteedHitHolds(t *testing.T) {
	// Cacheable accesses still always hit; the only misses are the NC
	// singleton accesses the superpage policy deliberately bypasses.
	w, _ := SingleProgram("sphinx3", 6, 1)
	r := run(t, superConfig(), w, 600000, 600000)
	misses := r.L3Accesses - r.L3Hits
	if misses > r.NCAccesses {
		t.Fatalf("%d L3 misses but only %d NC accesses: a cacheable access missed",
			misses, r.NCAccesses)
	}
}

func TestSuperpagesAmplifyOverFetch(t *testing.T) {
	// A first-touch-dominated program fetches whole regions per touch:
	// off-package traffic must grow substantially (Section 6's warning).
	w, _ := SingleProgram("GemsFDTD", 6, 1)
	base := run(t, scaledConfig(config.Tagless, 6), w, 600000, 600000)
	w2, _ := SingleProgram("GemsFDTD", 6, 1)
	sp := run(t, superConfig(), w2, 600000, 600000)
	if sp.OffPkgBytes <= base.OffPkgBytes {
		t.Fatalf("superpages did not amplify over-fetch: %d vs %d",
			sp.OffPkgBytes, base.OffPkgBytes)
	}
}

func TestSuperpagesSingletonsStayNC(t *testing.T) {
	// Low-reuse pages must bypass the cache under superpages (the OS
	// safety valve), showing up as NC accesses.
	w, _ := SingleProgram("GemsFDTD", 6, 1)
	r := run(t, superConfig(), w, 600000, 600000)
	if r.NCAccesses == 0 {
		t.Fatal("no NC accesses: singletons were cached as whole regions")
	}
}

func TestSuperpagesInvariantsAndEvictions(t *testing.T) {
	cfg := superConfig()
	cfg.CacheSize = 2 * config.MB // 64 regions: force region evictions
	w, _ := SingleProgram("milc", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(800000, 800000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ctrl.Evictions == 0 {
		t.Fatal("no region evictions despite tiny cache")
	}
	if err := m.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSuperpageConfigValidation(t *testing.T) {
	cfg := superConfig()
	cfg.Tagless.SuperpagePages = 7 // not a power of two
	if err := cfg.Validate(); err == nil {
		t.Error("non-power-of-two superpage accepted")
	}
	cfg = superConfig()
	cfg.Tagless.SuperpagePages = 8192 // larger than the cache page count? no: not dividing
	cfg.CacheSize = 4096 * config.PageSize
	if cfg.CachePages()%cfg.Tagless.SuperpagePages == 0 {
		cfg.Tagless.SuperpagePages = 4096*2 + 2 // force non-divisor
	}
	cfg = superConfig()
	cfg.Tagless.HotFilterThreshold = 4
	if err := cfg.Validate(); err == nil {
		t.Error("hot filter + superpages accepted")
	}
}

func TestSuperpageDeterminism(t *testing.T) {
	mk := func() *Result {
		w, _ := SingleProgram("lbm", 6, 1)
		return run(t, superConfig(), w, 300000, 300000)
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.OffPkgBytes != b.OffPkgBytes {
		t.Fatal("superpage simulation not deterministic")
	}
}

// pwcWalkCycles runs mcf on design under the pwc walk model and returns
// the measured window's page-table-walk cycles per walk, with what one
// walk-cache miss costs at least: the upper levels plus one off-package
// read at its best case (MinReadLatency). Every walk costs at least the
// upper levels plus a walk-cache hit. PageWalkCycles is set far above
// both, so a machine that priced its walks with the fixed model instead
// fails.
func pwcWalkCycles(t *testing.T, design config.L3Design, instr uint64) (perWalk, missCost float64) {
	t.Helper()
	cfg := scaledConfig(design, 6)
	cfg.WalkModel = "pwc"
	cfg.PageWalkCycles = 10_000
	w, _ := SingleProgram("mcf", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(instr, instr)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.TLBMisses == 0 {
		t.Fatalf("memory-walk run failed: IPC %v, %d TLB misses", r.IPC, r.TLBMisses)
	}
	perWalk = float64(r.Latency.Handler.Cycles[lat.PTWalk]) / float64(r.TLBMisses)
	upper := float64((mmu.WalkLevels - 1) * cfg.PWCHitCycles)
	if hit := upper + float64(cfg.PWCHitCycles); perWalk < hit || perWalk >= float64(cfg.PageWalkCycles) {
		t.Fatalf("%.1f cycles per walk, outside what the pwc model charges (at least %.0f for a walk-cache hit)", perWalk, hit)
	}
	return perWalk, upper + float64(m.offPkg.MinReadLatency(config.BlockSize))
}

// TestMemoryWalkModel: walks cluster on hot page-table lines, so the
// walk cache must hit often enough to bring the mean walk below the cost
// of a miss.
func TestMemoryWalkModel(t *testing.T) {
	perWalk, miss := pwcWalkCycles(t, config.Tagless, 600000)
	if perWalk >= miss {
		t.Fatalf("walk cache never hit; walk locality not modeled: %.1f cycles per walk, a miss costs at least %.0f", perWalk, miss)
	}
}

// TestMemoryWalkForConventionalDesigns: a design without the tagless
// controller walks through the same model.
func TestMemoryWalkForConventionalDesigns(t *testing.T) {
	perWalk, miss := pwcWalkCycles(t, config.SRAMTag, 400000)
	if perWalk >= miss {
		t.Fatalf("conventional design's walks never hit the walk cache: %.1f cycles per walk, a miss costs at least %.0f", perWalk, miss)
	}
}
