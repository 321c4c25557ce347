package system

import (
	"fmt"

	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/core"
	"taglessdram/internal/cpu"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/mmu"
	"taglessdram/internal/obs"
	"taglessdram/internal/org"
	"taglessdram/internal/sim"
	"taglessdram/internal/stats"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
	"taglessdram/internal/vm"
)

// paBit distinguishes physically-addressed lines from cache-addressed lines
// in the on-die caches of the tagless design (non-cacheable pages keep
// physical addresses; Section 3.2).
const paBit = org.PABit

// spKeyBit marks TLB keys that name a superpage region rather than a base
// page, keeping the two namespaces disjoint.
const spKeyBit = uint64(1) << 61

// regionKey is the TLB key of the superpage region holding vpn.
func (m *Machine) regionKey(vpn uint64) uint64 { return spKeyBit | vpn>>m.spShift }

// coreCtx bundles one core's private hardware and its workload stream.
type coreCtx struct {
	id   int
	cpu  *cpu.Core
	tlbs *tlb.Hierarchy
	l1   *cache.Cache
	l2   *cache.Cache
	gen  trace.Source
	vgen *trace.Generator // gen when it is a Generator (visit-granular ff)
	pt   *mmu.PageTable

	// hotCount tracks per-page access counts for the online hot-page
	// filter (CHOP-style); nil unless the filter is enabled.
	hotCount map[uint64]uint32

	// Last-translation memo: the most recent present PTE this core
	// resolved. Valid forever once set — page-table entries are never
	// unmapped and PTE pointers are stable — so the classification paths
	// in step reuse one resolution instead of repeated table probes.
	memoVPN uint64
	memoPTE *mmu.PTE

	// ffFilt is the fast-forward path's stand-in for the on-die hierarchy:
	// a direct-mapped memo over block numbers, sized to the L2's line
	// count, deciding which touches perform a real L2 access (and, on L2
	// miss, reach the organization) at the cost of one array probe. Each
	// slot packs the block's tag-remainder signature with the ff-span
	// epoch that wrote it, so entries expire when the span ends — a block
	// is only memoized while its recency plausibly keeps it on-die, never
	// across measurement windows. Pure scratch: lazily allocated, never
	// serialized.
	ffFilt []uint64
	ffMask uint64
	ffLog  uint

	startCycle sim.Tick
	startInstr uint64
}

// lookup resolves vpn's PTE through the core's last-translation memo.
// Only present entries are memoized (absent vpns can appear later).
func (cc *coreCtx) lookup(vpn uint64) (*mmu.PTE, bool) {
	if cc.memoPTE != nil && cc.memoVPN == vpn {
		return cc.memoPTE, true
	}
	pte, ok := cc.pt.Lookup(vpn)
	if ok {
		cc.memoVPN, cc.memoPTE = vpn, pte
	}
	return pte, ok
}

// Machine is one simulated system: cores, TLBs, on-die caches, the chosen
// DRAM-cache organization and both DRAM devices.
type Machine struct {
	cfg      *config.SystemConfig
	workload Workload
	kernel   *sim.Kernel
	inPkg    *dram.Device
	offPkg   *dram.Device
	cores    []*coreCtx
	alloc    *mmu.FrameAllocator

	// org is the pluggable DRAM-cache organization serving L2 misses
	// and dirty on-die victims (internal/org registry). The tagless
	// design additionally exposes its controller, which the translation
	// path in step consults directly (ctrl is nil for other designs).
	org  org.Organization
	ctrl *core.Controller

	// walk is the pluggable page-table-walk timing model (internal/vm
	// registry); every TLB miss's walk cost routes through it.
	walk vm.WalkModel
	// tlbShared is the shared-L2 group under the shared topology (nil
	// for private), and ctx paces per-core context switches (nil when
	// disabled). ctxScratch is the reusable key buffer a flush collects
	// into.
	tlbShared   *tlb.SharedGroup
	ctx         *vm.CtxSched
	ctxScratch  []uint64
	ctxSwitches uint64

	spPages      uint64            // superpage region size in pages (1 = disabled)
	spMask       uint64            // spPages-1 (spPages is a power of two)
	spShift      uint              // log2(spPages)
	caShift      uint              // log2(spPages*PageSize): CA bytes → block number
	sharedFrames map[uint64]uint64 // shared VPN → PPN (inter-process pages)
	giptBase     uint64            // off-package byte address of the GIPT region
	giptRegion   uint64
	ncThreshold  int

	refs uint64 // trace references processed (all phases)

	ffEpoch uint32 // current fast-forward span, for ffFilt entry expiry

	// warmedTo is the per-core instruction count the Warmup/Measure pair
	// has warmed to (phase targets are absolute counts, so Measure and a
	// restored checkpoint must agree on the warm-up length).
	warmedTo uint64

	// Measurement state.
	measuring  bool
	rec        lat.Recorder  // per-component cycle attribution (measured window)
	l3Lat      stats.Mean    // device-side latency of L3 accesses
	handlerLat stats.Mean    // TLB-miss handler latency (amortized into Fig. 8)
	kindLat    [4]stats.Mean // handler latency by core.MissKind (Table 1)
	l3Accesses uint64
	l3Hits     uint64
	tlbLookups uint64
	tlbMisses  uint64
	ncAccesses uint64

	// sampler is the optional epoch sampler (nil keeps the per-reference
	// path to a single pointer check).
	sampler *obs.Sampler
}

// New builds a machine for the configuration and workload.
func New(cfg *config.SystemConfig, w Workload) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if !w.MultiThreaded && len(w.PerCore) > cfg.CPU.Cores {
		return nil, fmt.Errorf("system: workload %s has %d programs for %d cores",
			w.Name, len(w.PerCore), cfg.CPU.Cores)
	}

	m := &Machine{
		cfg:          cfg,
		workload:     w,
		kernel:       sim.NewKernel(),
		inPkg:        dram.New("in-pkg", cfg.InPkg, cfg.CPU.FreqGHz),
		offPkg:       dram.New("off-pkg", cfg.OffPkg, cfg.CPU.FreqGHz),
		sharedFrames: make(map[uint64]uint64),
		ncThreshold:  cfg.Tagless.NCAccessThreshold,
	}
	// Reserve the top sixteenth of off-package DRAM for page tables and
	// the GIPT, so handler traffic does not alias application rows.
	m.giptRegion = uint64(cfg.OffPkg.SizeBytes) / 16
	m.giptBase = uint64(cfg.OffPkg.SizeBytes) - m.giptRegion
	frames := m.giptBase / config.PageSize
	m.alloc = mmu.NewFrameAllocator(frames)

	// Address spaces and trace streams, one per core the workload runs
	// on; cores beyond them are not built.
	var pts []*mmu.PageTable
	var gens []trace.Source
	switch {
	case len(w.Sources) > 0:
		if len(w.Sources) > cfg.CPU.Cores {
			return nil, fmt.Errorf("system: workload %s has %d sources for %d cores",
				w.Name, len(w.Sources), cfg.CPU.Cores)
		}
		for i, s := range w.Sources {
			pts = append(pts, mmu.NewPageTable(i, m.alloc))
			gens = append(gens, s)
		}
	case w.MultiThreaded:
		pt := mmu.NewPageTable(0, m.alloc)
		group, err := trace.NewThreadGroup(w.PerCore[0], cfg.CPU.Cores, w.Seed)
		if err != nil {
			return nil, err
		}
		for _, g := range group {
			pts = append(pts, pt)
			gens = append(gens, g)
		}
	default:
		for i, p := range w.PerCore {
			pts = append(pts, mmu.NewPageTable(i, m.alloc))
			group, err := trace.NewThreadGroup(p, 1, w.Seed+uint64(i)*7919)
			if err != nil {
				return nil, err
			}
			gens = append(gens, group[0])
		}
	}

	// Virtual-memory layer: the TLB topology and the walk timing model,
	// both resolved through the internal/vm registries. Walk references
	// land in the reserved page-table region computed above.
	topo, err := vm.NewTopology(cfg.EffectiveTLBTopology(), cfg.L1TLB, cfg.L2TLB, len(gens))
	if err != nil {
		return nil, err
	}
	m.tlbShared = topo.Shared
	m.walk, err = vm.NewWalk(cfg.EffectiveWalkModel(), vm.Ports{
		Cfg:    cfg,
		OffPkg: m.offPkg,
		Rec:    &m.rec,
		PTBase: m.giptBase,
		PTSize: m.giptRegion,
	})
	if err != nil {
		return nil, err
	}
	m.ctx = vm.NewCtxSched(cfg)

	// Per-core hardware.
	for i, gen := range gens {
		cc := &coreCtx{
			id:   i,
			cpu:  cpu.New(i, cfg.CPU.IssueWidth, cfg.CPU.MSHRs),
			tlbs: topo.Cores[i],
			l1:   cache.New(cfg.L1D),
			l2:   cache.New(cfg.L2),
			gen:  gen,
			pt:   pts[i],
		}
		cc.vgen, _ = gen.(*trace.Generator)
		if m.tlbShared != nil {
			// Shared-L2 keys are ASID-tagged: multithreaded cores share
			// one table (and so one tag); multiprogrammed cores each get
			// their own address space.
			cc.tlbs.SetASID(cc.pt.ASID)
		}
		if cfg.Design == config.Tagless && cfg.Tagless.HotFilterThreshold > 0 {
			cc.hotCount = make(map[uint64]uint32)
		}
		m.cores = append(m.cores, cc)
	}

	// Organization wiring: resolve the configured design through the
	// internal/org registry. Each organization builds its own state
	// against the narrow Ports view; adding a design needs no edit here.
	o, err := org.New(cfg.Design, org.Ports{
		Cfg:     cfg,
		InPkg:   m.inPkg,
		OffPkg:  m.offPkg,
		Kernel:  m.kernel,
		Mem:     &org.DeviceMem{InPkg: m.inPkg, OffPkg: m.offPkg, Lat: &m.rec},
		Observe: m.observeL3,
		Lat:     &m.rec,
		Walk:    m.walk.Walk,
	})
	if err != nil {
		return nil, err
	}
	m.org = o

	// The tagless organization is the one design the translation path
	// must know about: cTLB misses route through its controller, and its
	// eviction/shootdown activity feeds back into the TLBs and on-die
	// caches. Wire those hooks here; every other design is opaque.
	if tg, ok := o.(*org.Tagless); ok {
		m.ctrl = tg.Controller()
		m.spPages = 1
		if sp := cfg.Tagless.SuperpagePages; sp > 1 {
			m.spPages = uint64(sp)
		}
		m.ctrl.EvictHook = m.onPageEvicted
		m.ctrl.ShootdownHook = m.onShootdown
		for _, cc := range m.cores {
			cc := cc
			cc.tlbs.OnEvict = func(vpn uint64, e tlb.Entry) {
				m.ctrl.NoteTLBEviction(cc.id, e)
			}
		}
	}

	// Strength-reduce the hot-path divisions. Superpage region sizes are
	// powers of two by construction (config.Validate enforces it).
	if m.ctrl != nil {
		m.spMask = m.spPages - 1
		for p := m.spPages; p > 1; p >>= 1 {
			m.spShift++
		}
		m.caShift = m.spShift + 12 // log2(spPages * config.PageSize)
	}
	return m, nil
}

// AttachSampler installs an epoch sampler: at the end of each of its
// epochs of measured references the machine snapshots its counters and
// records one epoch delta. Attach before Run. Sampling is read-only — it
// never changes simulated behavior — and a nil sampler (the default)
// keeps the steady-state step path allocation-free.
func (m *Machine) AttachSampler(s *obs.Sampler) { m.sampler = s }

// SetTracer installs a kernel event tracer (Chrome trace_event format,
// bounded window). Install before Run; pass nil to disable.
func (m *Machine) SetTracer(t *sim.Tracer) { m.kernel.SetTracer(t) }

// cumulative assembles the monotone counter snapshot the epoch sampler
// diffs: measured-window core clocks and instruction counts, the L3/cTLB
// measurement counters, both DRAM devices' traffic and row-buffer
// counters, the organization's window counters, and the tagless
// controller's free-pool gauges.
func (m *Machine) cumulative() obs.Cumulative {
	var c obs.Cumulative
	var lead sim.Tick
	for _, cc := range m.cores {
		c.Instructions += cc.cpu.Instructions - cc.startInstr
		if d := cc.cpu.Now() - cc.startCycle; d > lead {
			lead = d
		}
	}
	c.Cycle = uint64(lead)
	c.Refs = m.refs
	c.L3Accesses = m.l3Accesses
	c.L3Hits = m.l3Hits
	c.TLBLookups = m.tlbLookups
	c.TLBMisses = m.tlbMisses
	c.InPkgBytes = m.inPkg.BytesTransferred()
	c.OffPkgBytes = m.offPkg.BytesTransferred()
	c.InPkgRowAccesses, c.InPkgRowHits = m.inPkg.Accesses, m.inPkg.RowHits
	c.OffPkgRowAccesses, c.OffPkgRowHits = m.offPkg.Accesses, m.offPkg.RowHits
	c.L3LatBuckets = m.rec.L3Counts()
	c.InPkgBusBusy = m.inPkg.BusBusyTicks()
	c.OffPkgBusBusy = m.offPkg.BusBusyTicks()
	c.InPkgChannels = m.inPkg.Channels()
	c.OffPkgChannels = m.offPkg.Channels()
	c.Ctrl = m.org.Stats().Ctrl
	if m.ctrl != nil {
		c.Gauges = obs.Gauges{FreeBlocks: m.ctrl.FreeBlocks(), FreeQueueLen: m.ctrl.FreeQueueLen()}
	}
	return c
}

// onPageEvicted flushes CA-tagged on-die lines of a region leaving the
// tagless cache, so the reallocated cache address cannot alias stale data.
func (m *Machine) onPageEvicted(at sim.Tick, ca, ppn uint64, dirty bool) {
	bytes := m.spPages * config.PageSize
	base := ca * bytes
	for _, cc := range m.cores {
		cc.l1.InvalidateRange(base, int(bytes))
		cc.l2.InvalidateRange(base, int(bytes))
	}
}

// contextSwitch applies one context switch on cc: under the flush policy
// the core's own shared-L2 entries are shot down (and the switch's cost
// charged when timed); under the ASID-retain policy the entries survive
// but a burst of foreign-tenant entries is injected, modeling the TLB
// capacity other tenants consume while scheduled. The untimed variant
// (fast-forward) applies only the state effects, and is not counted.
func (m *Machine) contextSwitch(cc *coreCtx, timed bool) {
	if timed {
		m.ctxSwitches++
	}
	if m.ctx.Flush {
		m.ctxScratch = m.ctxScratch[:0]
		if m.tlbShared != nil {
			m.tlbShared.L2.Each(func(key uint64, _ tlb.Entry) {
				if cc.tlbs.OwnsKey(key) {
					m.ctxScratch = append(m.ctxScratch, key)
				}
			})
		}
		for _, key := range m.ctxScratch {
			// Keys are already ASID-tagged; Invalidate's tagging is an
			// idempotent OR, so passing them back is safe.
			cc.tlbs.Invalidate(key)
		}
		if timed && len(m.ctxScratch) > 0 {
			d := sim.Tick(len(m.ctxScratch) * vm.ShootdownCyclesPerEntry)
			m.rec.AddBackground(lat.TLBShootdown, d)
			cc.cpu.Block(cc.cpu.Now() + d)
		}
		return
	}
	// ASID-retain: foreign tenants ran and filled shared-L2 capacity.
	// NC entries skip residence bookkeeping on displacement.
	for i := 0; i < vm.ForeignInjectEntries; i++ {
		cc.tlbs.Insert(m.ctx.ForeignVPN(cc.id), tlb.Entry{NC: true})
	}
}

// sharedFrame returns the machine-wide physical frame backing a shared
// virtual page, allocating it on first use.
func (m *Machine) sharedFrame(vpn uint64) (uint64, error) {
	if ppn, ok := m.sharedFrames[vpn]; ok {
		return ppn, nil
	}
	ppn, err := m.alloc.Alloc()
	if err != nil {
		return 0, err
	}
	m.sharedFrames[vpn] = ppn
	return ppn, nil
}

// onShootdown invalidates a page (or superpage region) from every TLB that
// still references it, allowing a resident block to be evicted under
// extreme pressure.
func (m *Machine) onShootdown(ca, vpn uint64, residence uint64) {
	key := vpn
	if m.spPages > 1 {
		key = m.regionKey(vpn)
	}
	for _, cc := range m.cores {
		if residence&(1<<uint(cc.id)) != 0 {
			cc.tlbs.Invalidate(key)
		}
	}
}
