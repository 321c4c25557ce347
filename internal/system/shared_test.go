package system

import (
	"fmt"
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/trace"
)

// sharedMix builds a MIX1 workload where every program spends part of its
// visits in the inter-process shared region.
func sharedMix(t *testing.T, frac float64) Workload {
	t.Helper()
	w, err := Mix("MIX1", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.PerCore {
		w.PerCore[i].SharedFrac = frac
	}
	return w
}

func TestSharedPagesDefaultNonCacheable(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	w := sharedMix(t, 0.2)
	r := run(t, cfg, w, 500000, 500000)
	// The paper's adopted solution: shared pages bypass the DRAM cache.
	if r.NCAccesses == 0 {
		t.Fatal("no NC accesses despite shared pages and no alias table")
	}
	if r.Ctrl.AliasHits != 0 {
		t.Fatal("alias hits without the alias table")
	}
}

func TestSharedPagesAliasTable(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	cfg.Tagless.SharedAliasTable = true
	w := sharedMix(t, 0.2)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(500000, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if r.NCAccesses != 0 {
		t.Fatal("shared pages still non-cacheable with the alias table enabled")
	}
	if r.L3HitRate != 1.0 {
		t.Fatalf("alias table should restore the guaranteed hit: %v", r.L3HitRate)
	}
	if err := m.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Warmup attaches count too: check lifetime stats, not the delta.
	if m.ctrl.Stats().AliasHits == 0 {
		t.Fatal("no alias hits despite four processes sharing pages")
	}
}

// TestSampledSharedAliasTable pins a sampled run of the alias table on
// sharedMix exactly: fast-forward attaches processes to blocks other
// processes filled, and the windows after each span measure that state.
// The controller must stay consistent, and a fast-forwarded span must
// reach the alias attach (its counters roll back at the span's end, so
// they are read inside one).
func TestSampledSharedAliasTable(t *testing.T) {
	const want = `cyc=84281 in=161913 ipc=1.6215208848195115 pc=[0.6222418618353218 0.5964659629314938 0.4053802212048779 0.7559912854030502] l3=2855,2855,684.687215411558 tlb=11200,165 nc=0 b=494016,321024 ctrl={Walks:165 NonCacheable:0 VictimHits:40 ColdFills:76 PendingWaits:0 AliasHits:49 Rescues:0 Evictions:0 Writebacks:0 SyncEvictions:0 Shootdowns:0} win=56 mrefs=11200 frefs=32244 ci=0.2757305653099641`
	cfg := scaledConfig(config.Tagless, 6)
	cfg.Tagless.SharedAliasTable = true
	m, err := New(cfg, sharedMix(t, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.RunSampled(200_000, 200_000, SampleSpec{WindowRefs: 150, WarmRefs: 50, PeriodRefs: 800})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := r.Sampled
	got := fmt.Sprintf("cyc=%d in=%d ipc=%v pc=%v l3=%d,%d,%v tlb=%d,%d nc=%d b=%d,%d ctrl=%+v win=%d mrefs=%d frefs=%d ci=%v",
		r.Cycles, r.Instructions, r.IPC, r.PerCoreIPC, r.L3Accesses, r.L3Hits, r.AvgL3Latency,
		r.TLBLookups, r.TLBMisses, r.NCAccesses, r.InPkgBytes, r.OffPkgBytes, r.Ctrl,
		s.Windows, s.MeasuredRefs, s.FastRefs, s.IPCCI95)
	if got != want {
		t.Errorf("sampled alias-table run changed:\n got: %s\nwant: %s", got, want)
	}

	if err := m.ffBegin(); err != nil {
		t.Fatal(err)
	}
	before := m.ctrl.Stats().AliasHits
	var v trace.Visit
	for i := 0; i < 20_000; i++ {
		cc, _ := m.nextCore(^uint64(0))
		fetchVisit(cc, &v)
		if err := m.ffVisit(cc, &v); err != nil {
			t.Fatal(err)
		}
	}
	attached := m.ctrl.Stats().AliasHits - before
	m.org.FastEnd()
	if attached == 0 {
		t.Error("no alias attaches in 20000 fast-forwarded visits")
	}
	if err := m.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedFramesCommonAcrossProcesses(t *testing.T) {
	cfg := scaledConfig(config.SRAMTag, 6)
	w := sharedMix(t, 0.3)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(300000, 300000); err != nil {
		t.Fatal(err)
	}
	// Every process's shared-region PTE must reference the same frame.
	vpn := trace.SharedBase
	var ppn uint64
	found := 0
	for _, cc := range m.cores {
		if pte, ok := cc.pt.Lookup(vpn); ok {
			if found > 0 && pte.Frame != ppn {
				t.Fatalf("shared page frames diverge: %d vs %d", pte.Frame, ppn)
			}
			ppn = pte.Frame
			found++
		}
	}
	if found < 2 {
		t.Skipf("only %d processes touched the first shared page", found)
	}
}

func TestSharedPagesAreReadOnly(t *testing.T) {
	p, _ := trace.ProfileByName("sphinx3")
	p.SharedFrac = 0.5
	g := trace.NewGenerator(p, 1)
	for i := 0; i < 50000; i++ {
		a := g.Next()
		if a.Shared && a.Write {
			t.Fatal("write to a shared (library) page")
		}
		if a.Shared && a.VAddr>>12 < trace.SharedBase {
			t.Fatal("shared access outside the shared region")
		}
	}
}

func TestHotFilterPromotesPages(t *testing.T) {
	cfg := scaledConfig(config.Tagless, 6)
	cfg.Tagless.HotFilterThreshold = 4
	w, _ := SingleProgram("sphinx3", 6, 1)
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(600000, 600000)
	if err != nil {
		t.Fatal(err)
	}
	// Cold pages bypass at first (NC accesses) but hot pages must be
	// promoted and cached (cold fills happen).
	if r.NCAccesses == 0 {
		t.Fatal("hot filter produced no NC accesses")
	}
	if m.ctrl.Stats().ColdFills == 0 {
		t.Fatal("hot filter never promoted a page to cacheable")
	}
	if err := m.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHotFilterReducesFillsOnLowReuse(t *testing.T) {
	mk := func(th int) uint64 {
		cfg := scaledConfig(config.Tagless, 6)
		cfg.Tagless.HotFilterThreshold = th
		w, _ := SingleProgram("GemsFDTD", 6, 1)
		m, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(600000, 600000); err != nil {
			t.Fatal(err)
		}
		return m.ctrl.Stats().ColdFills
	}
	off, on := mk(0), mk(4)
	if on >= off {
		t.Fatalf("hot filter did not reduce fills: %d vs %d", on, off)
	}
}

func TestReplaySourceDrivesMachine(t *testing.T) {
	// Record a short trace, then drive a core from the replay: the
	// simulation must run and the replay must wrap to fill the budget.
	p, _ := trace.ProfileByName("sphinx3")
	g := trace.NewGenerator(p.Scaled(6), 7)
	var accesses []trace.Access
	for i := 0; i < 5000; i++ {
		accesses = append(accesses, g.Next())
	}
	rep, err := trace.NewReplay(accesses)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaledConfig(config.Tagless, 6)
	w := Workload{Name: "replayed-sphinx3", Sources: []trace.Source{rep}}
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(200000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Fatalf("replayed IPC = %v", r.IPC)
	}
	if rep.Wraps == 0 {
		t.Fatal("replay never wrapped despite budget exceeding trace length")
	}
	if len(r.PerCoreIPC) != 1 {
		t.Fatalf("active cores = %d, want 1 (one source)", len(r.PerCoreIPC))
	}
}

func TestReplayWorkloadValidation(t *testing.T) {
	rep, _ := trace.NewReplay([]trace.Access{{VAddr: 0x1000}})
	w := Workload{Name: "x", Sources: []trace.Source{rep}, MultiThreaded: true}
	if err := w.Validate(); err == nil {
		t.Fatal("multi-threaded replay accepted")
	}
	cfg := scaledConfig(config.NoL3, 6)
	w = Workload{Name: "too-many", Sources: []trace.Source{rep, rep, rep, rep, rep}}
	if _, err := New(cfg, w); err == nil {
		t.Fatal("5 sources on 4 cores accepted")
	}
}

func TestSharedRegionBounded(t *testing.T) {
	p, _ := trace.ProfileByName("sphinx3")
	p.SharedFrac = 0.5
	g := trace.NewGenerator(p, 2)
	pages := map[uint64]bool{}
	for i := 0; i < 50000; i++ {
		a := g.Next()
		if a.Shared {
			pages[a.VAddr>>12] = true
		}
	}
	if len(pages) == 0 || len(pages) > trace.SharedRegionPages {
		t.Fatalf("shared pages touched = %d, want (0, %d]", len(pages), trace.SharedRegionPages)
	}
}
