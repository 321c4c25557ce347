package system

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/org"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// Run executes the workload: every active core retires `warmup`
// instructions to populate caches and TLBs, statistics reset, and the
// measured phase runs for `measure` instructions per core.
func (m *Machine) Run(warmup, measure uint64) (*Result, error) {
	if measure == 0 {
		return nil, fmt.Errorf("system: measure phase must be positive")
	}
	// The phase target is the absolute instruction count warmup+measure;
	// validate it before the sum can wrap to a tiny (or huge) target.
	if warmup+measure < warmup {
		return nil, fmt.Errorf("system: warmup+measure overflows uint64 (warmup=%d measure=%d)", warmup, measure)
	}
	if err := m.runPhase(warmup); err != nil {
		return nil, err
	}
	m.beginMeasurement()
	if err := m.runPhase(warmup + measure); err != nil {
		return nil, err
	}
	// Let in-flight accesses and background evictions finish.
	for _, cc := range m.cores {
		cc.cpu.Drain()
	}
	m.kernel.Run(0)
	return m.collect(), nil
}

// runPhase advances every active core until it has retired `target`
// instructions, interleaving cores in simulated-time order. One runnable
// core needs no ordering at all; small machines use a linear min-scan;
// larger ones an indexed min-heap keyed by (core time, core id) — all three
// pick the same core at every step (minimal time, lowest id on ties), so
// the choice is a pure performance knob.
func (m *Machine) runPhase(target uint64) error {
	runnable := m.sched[:0]
	for _, cc := range m.cores {
		if cc.active && cc.cpu.Instructions < target {
			runnable = append(runnable, cc)
		}
	}
	m.sched = runnable
	switch {
	case len(runnable) == 0:
		return nil
	case len(runnable) == 1:
		cc := runnable[0]
		for cc.cpu.Instructions < target {
			if err := m.step(cc); err != nil {
				return err
			}
		}
		return nil
	case len(runnable) <= 4 || m.forceScan:
		return m.runPhaseScan(target)
	default:
		return m.runPhaseHeap(runnable, target)
	}
}

// nextCore picks the runnable core with the minimal clock (lowest id on
// ties — the scan keeps the first minimum), or nil once every core has
// retired target instructions.
func (m *Machine) nextCore(target uint64) *coreCtx {
	var next *coreCtx
	for _, cc := range m.cores {
		if !cc.active || cc.cpu.Instructions >= target {
			continue
		}
		if next == nil || cc.cpu.Now() < next.cpu.Now() {
			next = cc
		}
	}
	return next
}

// soloCore returns the single active core, or nil when zero or several
// cores are active.
func (m *Machine) soloCore() *coreCtx {
	var solo *coreCtx
	for _, cc := range m.cores {
		if !cc.active {
			continue
		}
		if solo != nil {
			return nil
		}
		solo = cc
	}
	return solo
}

// runPhaseScan is the O(cores) min-scan: cheapest for small machines.
func (m *Machine) runPhaseScan(target uint64) error {
	for {
		next := m.nextCore(target)
		if next == nil {
			return nil
		}
		if err := m.step(next); err != nil {
			return err
		}
	}
}

// runPhaseHeap interleaves many cores through an indexed min-heap. Only the
// stepped core's clock changes, so each step is one sift-down instead of a
// full rescan.
func (m *Machine) runPhaseHeap(h []*coreCtx, target uint64) error {
	less := func(a, b *coreCtx) bool {
		an, bn := a.cpu.Now(), b.cpu.Now()
		if an != bn {
			return an < bn
		}
		return a.id < b.id
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if r := c + 1; r < len(h) && less(h[r], h[c]) {
				c = r
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 1 {
		cc := h[0]
		if err := m.step(cc); err != nil {
			return err
		}
		if cc.cpu.Instructions >= target {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	cc := h[0]
	for cc.cpu.Instructions < target {
		if err := m.step(cc); err != nil {
			return err
		}
	}
	return nil
}

// Steps advances the machine by n trace references, interleaving active
// cores in simulated-time order with no instruction target. It exists for
// benchmarks and profiling harnesses that meter the per-reference path.
func (m *Machine) Steps(n int) error {
	if solo := m.soloCore(); solo != nil {
		for i := 0; i < n; i++ {
			if err := m.step(solo); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		next := m.nextCore(^uint64(0))
		if next == nil {
			return nil
		}
		if err := m.step(next); err != nil {
			return err
		}
	}
	return nil
}

// Drain fires every pending kernel event (controller daemons, in-flight
// fills) without advancing any core. Benchmarks call it after warm-up so
// the measured window starts from a quiesced event queue.
func (m *Machine) Drain() {
	m.kernel.Run(0)
}

// beginMeasurement resets all statistics at the warmup/measure boundary,
// keeping microarchitectural state (cache contents, TLBs, row buffers).
func (m *Machine) beginMeasurement() {
	m.measuring = true
	m.inPkg.ResetStats()
	m.offPkg.ResetStats()
	for _, cc := range m.cores {
		cc.l1.ResetStats()
		cc.l2.ResetStats()
		cc.tlbs.L1.ResetStats()
		cc.tlbs.L2.ResetStats()
		cc.startCycle = cc.cpu.Now()
		cc.startInstr = cc.cpu.Instructions
	}
	m.l3Lat.Reset()
	m.handlerLat.Reset()
	for i := range m.kindLat {
		m.kindLat[i].Reset()
	}
	m.l3Accesses = 0
	m.l3Hits = 0
	m.tlbLookups = 0
	m.tlbMisses = 0
	m.ncAccesses = 0
	m.ctxSwitches = 0
	if m.tlbShared != nil {
		m.tlbShared.Invalidations = 0
	}
	m.rec.Reset()
	m.rec.Enable()
	m.org.ResetStats()
	if m.sampler != nil {
		// Epoch zero starts here: rebase the sampler's cumulative
		// baseline on the freshly reset counters.
		m.sampler.Rebase(m.cumulative())
	}
}

// step processes one trace reference on one core.
func (m *Machine) step(cc *coreCtx) error {
	a := cc.gen.Next()
	cc.cpu.Retire(a.Gap + 1)
	m.kernel.Advance(cc.cpu.Now())
	m.refs++
	// Epoch sampling: one pointer check when disabled; boundaries land
	// between references (the closing reference's effects count toward
	// the next epoch).
	if m.sampler != nil && m.measuring && m.sampler.Tick() {
		m.sampler.Record(m.cumulative())
	}
	// Context-switch pacing: Due counts per-core references, so the step
	// path (n=1) and the fast-forward path (n=batch) produce the same
	// switch schedule.
	if m.ctx != nil {
		for n := m.ctx.Due(cc.id, 1); n > 0; n-- {
			m.contextSwitch(cc, true)
		}
	}
	vpn := a.VAddr >> 12
	write := a.Write

	// Inter-process shared pages (Section 3.5): map the common frame on
	// first touch. Without the alias table, the tagless design marks them
	// non-cacheable to avoid aliasing; PA-indexed designs share naturally.
	if a.Shared {
		if _, ok := cc.lookup(vpn); !ok {
			ppn, err := m.sharedFrame(vpn)
			if err != nil {
				return err
			}
			pte, err := cc.pt.MapShared(vpn, ppn)
			if err != nil {
				return err
			}
			if m.ctrl != nil && !m.cfg.Tagless.SharedAliasTable {
				pte.NC = true
			}
		}
	}

	// Online hot-page filter (CHOP-style, cited as complementary): pages
	// start non-cacheable and earn cacheability after enough accesses.
	if cc.hotCount != nil && !a.Shared {
		n := cc.hotCount[vpn] + 1
		cc.hotCount[vpn] = n
		if n == 1 {
			if pte, err := cc.pt.Walk(vpn); err == nil && !pte.VC {
				pte.NC = true
			}
		} else if n == uint32(m.cfg.Tagless.HotFilterThreshold) {
			if pte, ok := cc.lookup(vpn); ok && pte.NC && !pte.VC {
				pte.NC = false
				// Shoot down the stale NC translation so the next miss
				// fills the now-hot page into the cache.
				cc.tlbs.Invalidate(vpn)
			}
		}
	}

	// In superpage mode the OS marks low-reuse (singleton) pages
	// non-cacheable unconditionally: caching them would over-fetch a
	// whole region for one block ("it would be safe to specify
	// superpages as non-cacheable", Section 3.5).
	if m.ctrl != nil && m.spPages > 1 && a.LowReuse {
		if pte, ok := cc.lookup(vpn); !ok || (!pte.VC && !pte.NC) {
			_ = cc.pt.SetNonCacheable(vpn)
		}
	}

	// Offline-profile non-cacheable classification (Section 5.4).
	if m.ctrl != nil && m.ncThreshold > 0 && a.LowReuse {
		if pte, ok := cc.lookup(vpn); !ok || (!pte.VC && !pte.NC) {
			// Best effort; a cached page stays cached.
			_ = cc.pt.SetNonCacheable(vpn)
		}
	}

	// 1. Address translation. In superpage mode, cacheable application
	// pages translate at region granularity: one cTLB entry per region.
	lookupKey := vpn
	superKey := false
	if m.spPages > 1 && vpn < trace.SingletonBase {
		if pte, ok := cc.lookup(vpn); !ok || pte.Super {
			lookupKey = spKeyBit | vpn>>m.spShift
			superKey = true
		}
	}
	entry, lvl := cc.tlbs.Lookup(lookupKey)
	m.tlbLookups++
	if lvl == tlb.InL2 && m.tlbShared != nil && m.ctrl != nil {
		// A shared-L2 hit refilled this core's L1 with a translation a
		// sibling installed: set this core's residence bit so the GIPT
		// keeps tracking every core that can hit the page.
		m.ctrl.NoteTLBResident(cc.id, entry)
	}
	if lvl == tlb.MissAll {
		m.tlbMisses++
		start := cc.cpu.Now()
		m.rec.Begin()
		var done sim.Tick
		if m.ctrl != nil {
			regionOff := a.VAddr & (config.PageSize - 1)
			if superKey {
				regionOff = (vpn&m.spMask)*config.PageSize + regionOff
			}
			e, d, kind, err := m.ctrl.HandleTLBMiss(start, cc.id, cc.pt, vpn, regionOff)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry, done = e, d
			// A superpage candidate resolved to a 4KB NC mapping keys at
			// 4KB granularity.
			if superKey && e.NC {
				lookupKey, superKey = vpn, false
			}
			if m.measuring {
				m.kindLat[kind].Observe(float64(d - start))
			}
		} else {
			pte, err := cc.pt.Walk(vpn)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry = tlb.Entry{Frame: pte.Frame}
			// The walk model attributes its own latency components.
			done = m.walk.Walk(start, cc.id, vpn)
		}
		cc.tlbs.Insert(lookupKey, entry)
		cc.cpu.Block(done)
		if m.measuring {
			m.handlerLat.Observe(float64(done - start))
		}
		m.rec.CommitHandler(done - start)
	}

	// 2. On-die cache key: cache addresses for cached pages in the
	// tagless design, physical addresses otherwise.
	offset := a.VAddr & (config.PageSize - 1)
	var key uint64
	switch {
	case m.ctrl != nil && !entry.NC && superKey:
		// Superpage region: Frame is the region CA.
		key = entry.Frame<<m.caShift + (vpn&m.spMask)*config.PageSize + offset
	case m.ctrl != nil && !entry.NC:
		key = entry.Frame*config.PageSize + offset // CA space
	case m.ctrl != nil:
		key = paBit | (entry.Frame*config.PageSize + offset)
		m.ncAccesses++
	default:
		key = entry.Frame*config.PageSize + offset // PA space
	}

	// 3. On-die caches (latency hidden by the out-of-order window).
	if hit, victim, hasVictim := cc.l1.Access(key, write); hit {
		return nil
	} else if hasVictim && victim.Dirty {
		// L1 write-back sinks into L2 (or memory when absent).
		if !cc.l2.MarkDirty(victim.Addr) {
			m.writebackBlock(cc, victim.Addr)
		}
	}
	if hit, victim, hasVictim := cc.l2.Access(key, write); hit {
		return nil
	} else if hasVictim && victim.Dirty {
		m.writebackBlock(cc, victim.Addr)
	}

	// 4. The L3 / memory access.
	m.l3Access(cc, entry, key, offset, write, a.Dependent)
	return nil
}

// l3Access hands an L2 miss to the organization.
func (m *Machine) l3Access(cc *coreCtx, entry tlb.Entry, key, offset uint64, write, dep bool) {
	if m.measuring {
		m.l3Accesses++
	}
	m.rec.Begin()
	m.org.Access(org.Request{
		CPU:    cc.cpu,
		Key:    key,
		Frame:  entry.Frame,
		Offset: offset,
		NC:     entry.NC,
		Write:  write,
		Dep:    dep,
	})
}

// observeL3 records one L3 access's device-side latency and hit/miss.
func (m *Machine) observeL3(d sim.Tick, hit bool) {
	if !m.measuring {
		return
	}
	m.l3Lat.Observe(float64(d))
	if hit {
		m.l3Hits++
	}
	m.rec.CommitL3(d)
}

// writebackBlock sinks a dirty on-die victim line into the level below,
// off the core's critical path (device traffic only).
func (m *Machine) writebackBlock(cc *coreCtx, key uint64) {
	m.org.Writeback(cc.cpu.Now(), key)
}
