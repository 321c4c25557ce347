// Package taglessdram reproduces "A Fully Associative, Tagless DRAM Cache"
// (Lee et al., ISCA 2015) as a cycle-level simulation library.
//
// The package is a facade over the internal simulator. A single run looks
// like:
//
//	opts := taglessdram.DefaultOptions()
//	r, err := taglessdram.Run(taglessdram.Tagless, "sphinx3", opts)
//
// and each figure or table of the paper's evaluation has a matching
// RunFigureN/RunTableN function that returns typed rows ready to print.
//
// Capacities are scaled down by Options.Shift (default 64×: the paper's
// 1GB cache becomes 16MB, workload footprints shrink equally) so full
// sweeps run in seconds while capacity ratios — cache vs footprint vs TLB
// reach — track the paper. Timings, energies and bandwidths are unscaled.
package taglessdram

import (
	"flag"
	"fmt"
	"io"
	"time"

	"taglessdram/internal/config"
	"taglessdram/internal/obs"
	"taglessdram/internal/org"
	"taglessdram/internal/resultcache"
	"taglessdram/internal/sim"
	"taglessdram/internal/system"
	"taglessdram/internal/trace"
	"taglessdram/internal/vm"
)

// Design selects a DRAM-cache organization (Section 4 of the paper).
type Design = config.L3Design

// The five evaluated organizations.
const (
	// NoL3 is the baseline: off-package DRAM only.
	NoL3 = config.NoL3
	// BankInterleave ("BI") maps in-package DRAM into the physical
	// address space with OS-oblivious interleaving.
	BankInterleave = config.BankInterleave
	// SRAMTag is the page-based cache with an on-die SRAM tag array.
	SRAMTag = config.SRAMTag
	// Tagless is the proposed cTLB-based design.
	Tagless = config.Tagless
	// Ideal stores all data in-package.
	Ideal = config.Ideal
	// AlloyBlock is the block-based (tags-in-DRAM, direct-mapped) design
	// class of Table 2, not part of the paper's five plotted designs.
	AlloyBlock = config.AlloyBlock
	// Banshee is a page-based cache with frequency-based replacement and
	// bandwidth-efficient fills (Yu et al., see PAPERS.md) — a baseline
	// from follow-up work, not one of the paper's five plotted designs.
	Banshee = config.Banshee
)

// Replacement policies for the tagless cache (Figure 11; CLOCK is the
// second-chance LRU approximation the paper names in Section 5.2).
const (
	FIFO  = config.FIFO
	LRU   = config.LRU
	CLOCK = config.CLOCK
)

// Result is re-exported from the system package: one measured run.
type Result = system.Result

// Options controls a simulation run, and is the one description of a
// job that the result cache, the sweep service and the CLIs share. The
// json tags classify the fields: a named field can change a Result, so
// it crosses the wire to a sweep service and enters the cache key
// (Canonical); a `json:"-"` field is local (an observer, a handle or an
// execution mechanic) and does neither. The checkpoint fields are local
// but still fold into the key's derived quiesced bit.
type Options struct {
	// Shift scales capacities and footprints down by 1<<Shift.
	Shift uint `json:"shift"`
	// Warmup and Measure are per-core instruction budgets.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Seed varies the synthetic traces.
	Seed uint64 `json:"seed"`
	// CacheMB overrides the scaled DRAM-cache capacity in MB (0 = the
	// scaled default, 1GB>>Shift).
	CacheMB int64 `json:"cache_mb,omitempty"`
	// Policy selects the tagless victim policy (FIFO default).
	Policy config.ReplacementPolicy `json:"policy,omitempty"`
	// NCAccessThreshold enables non-cacheable-page classification for
	// pages an offline profile marks low-reuse (Section 5.4; 32 in the
	// paper's case study).
	NCAccessThreshold int `json:"nc_access_threshold,omitempty"`
	// SynchronousEviction and CachedGIPT enable the two ablations.
	SynchronousEviction bool `json:"synchronous_eviction,omitempty"`
	CachedGIPT          bool `json:"cached_gipt,omitempty"`
	// SharedAliasTable enables Section 6's physical→cache alias table
	// for inter-process shared pages (default: such pages are marked
	// non-cacheable, the solution the paper adopts in Section 3.5).
	SharedAliasTable bool `json:"shared_alias_table,omitempty"`
	// HotFilterThreshold enables the online CHOP-style hot-page filter:
	// pages start non-cacheable and are promoted after this many
	// accesses. 0 turns the filter off; otherwise the value is at least
	// 2. Needs no offline profile, unlike NCAccessThreshold.
	HotFilterThreshold int `json:"hot_filter_threshold,omitempty"`
	// Superpages maps application regions as superpages (Section 6).
	// The region size is the paper's 2MB scaled by Shift (at the default
	// 64x scale: 8 base pages), so region-to-cache ratios track a 2MB
	// superpage against a 1GB cache.
	Superpages bool `json:"superpages,omitempty"`
	// Refresh enables DRAM refresh modeling (tREFI/tRFC blackouts) on
	// both devices. Off by default: the paper's Table 4 has no refresh
	// parameters.
	Refresh bool `json:"refresh,omitempty"`
	// L2TLBEntries overrides the per-core L2 TLB capacity (0 = the
	// paper's 512), for TLB-reach sensitivity studies.
	L2TLBEntries int `json:"l2_tlb_entries,omitempty"`
	// Alpha overrides the number of free blocks kept available (0 = the
	// paper's 1).
	Alpha int `json:"alpha,omitempty"`
	// WalkModel selects the page-table-walk timing model by name:
	// "fixed" (the paper's constant cost, the default), "pwc"
	// (walk-cache + leaf PTE memory traffic), or "nested" (virtualized
	// guest→host two-dimensional walk, up to 24 memory references per
	// miss). Empty means fixed.
	WalkModel string `json:"walk_model,omitempty"`
	// PWCHitCycles is the per-level page-walk-cache hit cost of the pwc
	// and nested models (the old hardcoded 2-cycle upper-level cost).
	PWCHitCycles int `json:"pwc_hit_cycles,omitempty"`
	// TLBTopology selects the TLB organization: "private" (per-core
	// two-level hierarchy, the default) or "shared" (per-core L1s over
	// one shared ASID-tagged L2 with cross-core invalidation traffic).
	TLBTopology string `json:"tlb_topology,omitempty"`
	// CtxSwitchRefs, when positive, context-switches each core every
	// that many trace references, modeling multi-tenant TLB pressure.
	CtxSwitchRefs uint64 `json:"ctx_switch_refs,omitempty"`
	// CtxSwitchFlush selects the context-switch policy: true shoots down
	// the core's own shared-L2 entries (quiesced flush); false retains
	// them under ASID tagging and injects foreign-tenant entries instead.
	CtxSwitchFlush bool `json:"ctx_switch_flush,omitempty"`
	// MSHRs overrides the per-core outstanding-miss window (0 = the
	// default 8), for memory-level-parallelism sensitivity studies.
	MSHRs int `json:"mshrs,omitempty"`
	// ExtraDesigns appends organizations beyond the paper's five to the
	// design-comparison grids (Figures 7, 9, 12) — e.g. AlloyBlock or
	// Banshee. The paper's plots are unchanged when empty.
	ExtraDesigns []Design `json:"-"`
	// Workers bounds how many simulations of a sweep (Sweep, or any
	// RunFigureN/RunTableN grid) run concurrently: 0 = GOMAXPROCS,
	// 1 = serial. It never changes a simulation's metrics — every job is
	// fully isolated, so parallel and serial sweeps are bit-identical —
	// and has no effect on a single Run. With Server set it becomes the
	// requested remote fan-out width (the service clamps it to its own
	// ceiling).
	Workers int `json:"-"`
	// Server, when non-empty, is the base URL of a sweepd sweep service
	// (cmd/sweepd); every RunFigureN/RunTableN sweep is then submitted
	// there via RemoteSweep instead of simulating in-process. Results
	// come back through the result cache's own codec, so remote sweeps
	// are byte-identical to local ones. The cells whose workloads a study
	// builds by hand (RunSharedPages, RunFairness's alone-runs) are Jobs
	// like any other, but the wire names workloads, so those cells sweep
	// in-process under the same options. Non-semantic: where a job runs
	// never changes its Result.
	Server string `json:"-"`
	// Progress, when non-nil, is called after each simulation of a sweep
	// completes (done/total counts, elapsed wall time, ETA). Calls are
	// serialized but may come from worker goroutines. A single Run calls
	// it once, after the run settles, with a one-line summary in the
	// Summary field: trace references and kernel events per wall-clock
	// second, or "result cache hit".
	Progress func(SweepProgress) `json:"-"`
	// OnSweepAccepted, when non-nil, is called once per remote sweep as
	// the sweep service accepts the grid, with the server-assigned sweep
	// ID — the handle for the service's span trace (GET /v1/trace) — and
	// the sweep's validated shape. In-process sweeps never call it.
	// Non-semantic: a pure observer.
	OnSweepAccepted func(SweepAccepted) `json:"-"`
	// EpochRefs enables epoch-resolved sampling: every EpochRefs measured
	// references the machine snapshots its counters and the Result carries
	// the per-epoch deltas in Result.Epochs (0 = off, the default; the hot
	// path stays allocation-free when off). Sampling is observational only
	// and never changes a run's metrics.
	EpochRefs uint64 `json:"epoch_refs,omitempty"`
	// EpochCapacity bounds the epoch ring; once full, older epochs are
	// dropped and Result.EpochsDropped counts them (0 = a generous
	// default, obs.DefaultCapacity).
	EpochCapacity int `json:"epoch_capacity,omitempty"`
	// MetricsSink, when non-nil, receives every completed Result: once
	// after a single Run, and once per job — in submission order, after
	// all jobs finish — for a sweep. Use WriteMetricsJSON inside the sink
	// to stream structured metrics; the submission-order guarantee makes
	// the output byte-identical across Workers settings.
	MetricsSink func(*Result) `json:"-"`
	// TraceEvents, when non-nil, receives a Chrome trace_event JSON
	// document (chrome://tracing, Perfetto) of the first TraceEventLimit
	// kernel events of the run. Single Run only; sweeps ignore it (jobs
	// would interleave on the shared writer).
	TraceEvents io.Writer `json:"-"`
	// TraceEventLimit bounds the trace window (0 = sim.DefaultTraceLimit).
	TraceEventLimit int `json:"-"`
	// Sample enables SMARTS-style sampled simulation: short cycle-accurate
	// measurement windows with functional fast-forward covering the gaps.
	// The Result's counters cover only the accurate windows and
	// Result.Sampled carries the IPC estimate ± CI95. Nil (the default)
	// runs every reference cycle-accurately.
	Sample *SampleSpec `json:"sample,omitempty"`
	// CheckpointSave writes the machine's post-warmup state to this file
	// before the measured phase, for later reuse via CheckpointLoad.
	// Any checkpoint option switches the run to the Warmup/Measure pair,
	// which quiesces the event kernel at the phase boundary (in-flight
	// events have no serialized form), so checkpointed results are
	// byte-identical to each other but not to a plain Run.
	CheckpointSave string `json:"-"`
	// CheckpointLoad restores post-warmup state from this file instead of
	// running the warm-up phase. The file is refused unless the machine
	// configuration and workload (its trace digest, so its seed too) match
	// the saving run's exactly.
	CheckpointLoad string `json:"-"`
	// Checkpoints, when non-nil, is a shared in-memory warm-state store:
	// sweeps warm each (workload, configuration, warm-up) combination
	// once and every later matching job skips straight to the measured
	// phase. A workload is identified by its trace digest, as in the cache
	// key, so its seed is part of it. Safe for concurrent workers.
	Checkpoints *CheckpointStore `json:"-"`
	// ResultCache, when non-nil, is a persistent content-addressed store
	// of completed Results: before simulating, a job — from Run, a sweep
	// or a study — looks up its fingerprint (Job.Fingerprint — model
	// version, design, workload + trace digest, semantic options, resolved
	// configuration) and replays a cached Result byte-identically instead
	// of re-simulating; fresh results are stored for future runs, and a
	// job whose Result cannot be stored fails with a result-cache error.
	// Sound because runs are bit-reproducible. Runs that load/save
	// checkpoint files or request kernel-event traces bypass the cache.
	// Safe for concurrent workers and processes sharing one directory.
	ResultCache *ResultCache `json:"-"`
}

// ResultCache is the persistent content-addressed result store (see
// Options.ResultCache), re-exported from internal/resultcache.
type ResultCache = resultcache.Store

// CacheStats are a result cache's lifetime hit/miss/store counters.
type CacheStats = resultcache.Stats

// OpenResultCache creates (if needed) and opens a result cache rooted at
// the given directory.
func OpenResultCache(dir string) (*ResultCache, error) {
	return resultcache.Open(dir)
}

// DefaultOptions returns the experiments' standard scale: 64× shrink,
// 3M warmup + 3M measured instructions per core.
func DefaultOptions() Options {
	return Options{Shift: 6, Warmup: 3_000_000, Measure: 3_000_000, Seed: 1, PWCHitCycles: 2}
}

// RegisterFlags binds the option flags both CLIs share directly to o's
// fields. Each flag defaults to the field's current value, so callers
// set their own defaults before registering.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "trace seed")
	fs.StringVar(&o.WalkModel, "walk", o.WalkModel, "page-table-walk model: fixed | pwc | nested (empty = fixed)")
	fs.IntVar(&o.PWCHitCycles, "pwc-hit", o.PWCHitCycles, "per-level page-walk-cache hit cycles (pwc and nested models)")
	fs.StringVar(&o.TLBTopology, "tlb-topo", o.TLBTopology, "TLB topology: private | shared (empty = private)")
	fs.Uint64Var(&o.CtxSwitchRefs, "ctx-switch-refs", o.CtxSwitchRefs, "context-switch each core every N trace references (0 = off)")
	fs.BoolVar(&o.CtxSwitchFlush, "ctx-switch-flush", o.CtxSwitchFlush, "flush the core's shared-L2 TLB entries at each context switch instead of retaining them under ASID tags")
	fs.Uint64Var(&o.EpochRefs, "epoch-refs", o.EpochRefs, "epoch length in measured references for time-series sampling (0 = off)")
	fs.IntVar(&o.EpochCapacity, "epoch-capacity", o.EpochCapacity, "max retained epochs per run; once full the oldest are dropped (0 = default ring)")
}

// configFor builds the machine configuration for a run.
func configFor(design Design, o Options) *config.SystemConfig {
	c := config.Default()
	c.Design = design
	c.InPkg.SizeBytes >>= o.Shift
	c.OffPkg.SizeBytes >>= o.Shift
	if o.CacheMB > 0 {
		c.CacheSize = o.CacheMB * config.MB
	} else {
		c.CacheSize >>= o.Shift
	}
	if c.CacheSize > c.InPkg.SizeBytes {
		c.InPkg.SizeBytes = c.CacheSize
	}
	c.Tagless.Policy = o.Policy
	c.Tagless.NCAccessThreshold = o.NCAccessThreshold
	c.Tagless.SynchronousEviction = o.SynchronousEviction
	c.Tagless.CachedGIPT = o.CachedGIPT
	c.Tagless.SharedAliasTable = o.SharedAliasTable
	c.Tagless.HotFilterThreshold = o.HotFilterThreshold
	if o.Superpages {
		sp := 512 >> o.Shift // 2MB at paper scale
		if sp < 2 {
			sp = 2
		}
		c.Tagless.SuperpagePages = sp
	}
	if o.Refresh {
		// DDR3-style refresh off-package; faster-bank refresh in-package.
		c.OffPkg.Timing.TREFIns, c.OffPkg.Timing.TRFCns = 7800, 350
		c.InPkg.Timing.TREFIns, c.InPkg.Timing.TRFCns = 3900, 260
	}
	if o.L2TLBEntries > 0 {
		c.L2TLB.Entries = o.L2TLBEntries
		if c.L2TLB.Entries < c.L2TLB.Ways {
			c.L2TLB.Ways = 1
		}
	}
	if o.Alpha > 0 {
		c.Tagless.Alpha = o.Alpha
	}
	c.WalkModel = o.WalkModel
	c.PWCHitCycles = o.PWCHitCycles
	c.TLBTopology = o.TLBTopology
	c.CtxSwitchRefs = o.CtxSwitchRefs
	c.CtxSwitchFlush = o.CtxSwitchFlush
	if o.MSHRs > 0 {
		c.CPU.MSHRs = o.MSHRs
	}
	return c
}

// workloadFor resolves a workload name: a SPEC program (single-programmed,
// four SimPoint slices), MIX1–MIX8 (multi-programmed), or a PARSEC program
// (multi-threaded).
func workloadFor(name string, o Options) (system.Workload, error) {
	if _, ok := trace.Mixes()[name]; ok {
		return system.Mix(name, o.Shift, o.Seed)
	}
	for _, p := range trace.PARSECNames() {
		if p == name {
			return system.MultiThread(name, o.Shift, o.Seed)
		}
	}
	return system.SingleProgram(name, o.Shift, o.Seed)
}

// Run simulates one (design, workload) pair and returns its metrics.
// With Options.ResultCache set, a previously completed identical run is
// replayed from the cache instead of re-simulated — byte-identically,
// because every run is bit-reproducible.
func Run(design Design, workload string, o Options) (*Result, error) {
	start := time.Now()
	j := Job{Design: design, Workload: workload, Options: o}
	var k jobKey
	if o.ResultCache != nil && o.cacheable() {
		key, pre, err := j.fingerprint()
		if err != nil {
			return nil, err
		}
		k = jobKey{key, pre}
	}
	s, hit, err := j.settle(k, false, nil, 0)
	if err != nil {
		return nil, err
	}
	if o.MetricsSink != nil {
		o.MetricsSink(s.r)
	}
	if o.Progress != nil {
		wall := time.Since(start)
		summary := "result cache hit"
		if !hit {
			var refsPerSec, eventsPerSec float64
			if secs := wall.Seconds(); secs > 0 {
				refsPerSec = float64(s.r.References) / secs
				eventsPerSec = float64(s.r.KernelEvents) / secs
			}
			summary = fmt.Sprintf("%.2fM refs/s, %.2fM events/s", refsPerSec/1e6, eventsPerSec/1e6)
		}
		o.Progress(SweepProgress{
			Done: 1, Total: 1, Elapsed: wall,
			Summary: fmt.Sprintf("%s/%v: %s", workload, design, summary),
		})
	}
	return s.r, nil
}

// simulateHook, when non-nil, observes every actual machine simulation.
// Test-only: the result-cache and single-flight regression tests count
// executions through it. Implementations must be safe for concurrent
// calls from sweep workers.
var simulateHook func(design Design, workload string)

// simulate builds the job's machine and executes the run: the one
// simulation body behind Run, sweeps, the sweep service and the studies.
// It calls no observer; a kernel-event trace is part of the run itself.
func (j Job) simulate() (*Result, error) {
	w, err := j.resolve()
	if err != nil {
		return nil, err
	}
	if simulateHook != nil {
		simulateHook(j.Design, j.Workload)
	}
	o := j.Options
	if o.Warmup == 0 {
		o.Warmup = o.Measure
	}
	cfg := configFor(j.Design, o)
	m, err := system.New(cfg, w)
	if err != nil {
		return nil, err
	}
	if o.EpochRefs > 0 {
		m.AttachSampler(obs.NewSampler(o.EpochRefs, o.EpochCapacity))
	}
	var tracer *sim.Tracer
	if o.TraceEvents != nil {
		tracer = sim.NewTracer(o.TraceEventLimit)
		m.SetTracer(tracer)
	}
	r, err := runMachine(m, cfg, w, o)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		if err := tracer.WriteJSON(o.TraceEvents); err != nil {
			return nil, fmt.Errorf("taglessdram: writing trace events: %w", err)
		}
	}
	return r, nil
}

// resolve validates the job's options and returns the workload it runs:
// the one a study built, or the one its name resolves to.
func (j Job) resolve() (system.Workload, error) {
	if err := j.Options.Validate(); err != nil {
		return system.Workload{}, err
	}
	if j.built != nil {
		return *j.built, nil
	}
	return workloadFor(j.Workload, j.Options)
}

// SPECWorkloads lists the 11 single-programmed workloads (Figure 7 order).
func SPECWorkloads() []string { return trace.SPECNames() }

// MixWorkloads lists MIX1–MIX8 (Table 5).
func MixWorkloads() []string { return trace.MixNames() }

// PARSECWorkloads lists the four multi-threaded workloads (Figure 12).
func PARSECWorkloads() []string { return trace.PARSECNames() }

// Designs lists the five organizations in the paper's plot order.
func Designs() []Design { return config.AllDesigns() }

// Organizations lists every registered cache organization — the paper's
// five plus the extra baselines (AlloyBlock, Banshee) — in enum order.
func Organizations() []Design { return org.Registered() }

// Validate checks an Options value.
func (o Options) Validate() error {
	if o.Measure == 0 {
		return fmt.Errorf("taglessdram: Measure must be positive")
	}
	if o.Shift > 10 {
		return fmt.Errorf("taglessdram: Shift %d unreasonably large", o.Shift)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"CacheMB", o.CacheMB}, {"L2TLBEntries", int64(o.L2TLBEntries)}, {"Alpha", int64(o.Alpha)}, {"MSHRs", int64(o.MSHRs)},
		{"NCAccessThreshold", int64(o.NCAccessThreshold)}, {"HotFilterThreshold", int64(o.HotFilterThreshold)},
	} {
		if f.v < 0 {
			return fmt.Errorf("taglessdram: %s must be non-negative, got %d", f.name, f.v)
		}
	}
	// The DRAM cache caches the off-package memory and the L2 TLB maps
	// its pages, so neither may be larger than it. The bound also keeps
	// CacheMB's byte size from overflowing, and the tables these knobs
	// size within what the host can allocate.
	offPkg := config.Default().OffPkg.SizeBytes >> o.Shift
	if o.CacheMB > offPkg/config.MB {
		return fmt.Errorf("taglessdram: CacheMB %d exceeds the %d MB of off-package memory it caches", o.CacheMB, offPkg/config.MB)
	}
	if int64(o.L2TLBEntries) > offPkg/config.PageSize {
		return fmt.Errorf("taglessdram: L2TLBEntries %d exceeds the %d pages of off-package memory", o.L2TLBEntries, offPkg/config.PageSize)
	}
	if o.Workers < 0 {
		return fmt.Errorf("taglessdram: Workers must be non-negative, got %d", o.Workers)
	}
	if o.EpochCapacity < 0 {
		return fmt.Errorf("taglessdram: EpochCapacity must be non-negative, got %d", o.EpochCapacity)
	}
	if o.TraceEventLimit < 0 {
		return fmt.Errorf("taglessdram: TraceEventLimit must be non-negative, got %d", o.TraceEventLimit)
	}
	if o.Sample != nil {
		if err := o.Sample.Validate(); err != nil {
			return err
		}
	}
	if o.CheckpointSave != "" && o.CheckpointLoad != "" {
		return fmt.Errorf("taglessdram: CheckpointSave and CheckpointLoad are mutually exclusive")
	}
	if o.WalkModel != "" && !registeredName(vm.RegisteredWalks(), o.WalkModel) {
		return fmt.Errorf("taglessdram: unknown walk model %q (have %v)", o.WalkModel, vm.RegisteredWalks())
	}
	if o.TLBTopology != "" && !registeredName(vm.RegisteredTopologies(), o.TLBTopology) {
		return fmt.Errorf("taglessdram: unknown TLB topology %q (have %v)", o.TLBTopology, vm.RegisteredTopologies())
	}
	if o.PWCHitCycles < 0 {
		return fmt.Errorf("taglessdram: PWCHitCycles must be non-negative, got %d", o.PWCHitCycles)
	}
	if _, err := o.Policy.MarshalText(); err != nil {
		return fmt.Errorf("taglessdram: %w", err)
	}
	return nil
}

// registeredName reports whether name appears in a vm registry listing.
func registeredName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
