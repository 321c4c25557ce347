package system

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/org"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// Run executes the workload: every core retires `warmup` instructions
// to populate caches and TLBs, statistics reset, and the measured phase
// runs for `measure` instructions per core. Unlike Warmup, the warm-up
// phase does not quiesce the event kernel: in-flight fills and evictions
// carry into the measured phase.
func (m *Machine) Run(warmup, measure uint64) (*Result, error) {
	// Refuse the measured phase before spending the warm-up on it.
	if _, err := measureTarget(warmup, measure); err != nil {
		return nil, err
	}
	if err := m.warm(warmup); err != nil {
		return nil, err
	}
	return m.Measure(measure)
}

// warm runs the warm-up phase to `warmup` instructions per core and
// makes it the measured phase's starting point.
func (m *Machine) warm(warmup uint64) error {
	if err := m.advance(^uint64(0), warmup, false); err != nil {
		return err
	}
	if warmup > m.warmedTo {
		m.warmedTo = warmup
	}
	return nil
}

// advance is the one loop that moves the machine. It interleaves the
// cores in simulated-time order (nextCore), running one step on the
// chosen core, or one fast-forward visit when fast is set, until refs
// more references have been processed or every core has retired target
// instructions. A visit is atomic, so a fast span may overshoot refs by
// up to one visit.
//
// A step or visit moves only the stepping core's clock and instruction
// count: every Retire, Block and ReserveMSHR call acts on the core that
// issued the reference (step, ffVisit, contextSwitch and the
// organizations' Access, through Request.CPU), and the controller's
// kernel events, shootdowns and invalidations move no clock. So the
// chosen core stays nextCore's choice until it reaches target or passes
// its rival, the earliest other eligible core, and advance keeps
// stepping it until then before it scans the cores again.
func (m *Machine) advance(refs, target uint64, fast bool) error {
	var v trace.Visit
	for start := m.refs; m.refs-start < refs; {
		cc, rival := m.nextCore(target)
		if cc == nil {
			return nil
		}
		for again := true; again; {
			var err error
			if fast {
				fetchVisit(cc, &v)
				err = m.ffVisit(cc, &v)
			} else {
				err = m.step(cc)
			}
			if err != nil {
				return err
			}
			again = m.refs-start < refs && cc.cpu.Instructions < target &&
				(rival == nil || cc.precedes(rival))
		}
	}
	return nil
}

// nextCore picks the core with the minimal clock, lowest id on ties,
// among those short of target instructions, or nil once every core has
// retired target instructions. rival is the next core in the same order
// (nil when next is the only eligible core): next stays the choice
// while it precedes rival.
func (m *Machine) nextCore(target uint64) (next, rival *coreCtx) {
	for _, cc := range m.cores {
		if cc.cpu.Instructions >= target {
			continue
		}
		switch {
		case next == nil || cc.precedes(next):
			next, rival = cc, next
		case rival == nil || cc.precedes(rival):
			rival = cc
		}
	}
	return next, rival
}

// precedes reports whether cc comes before o in simulated-time order:
// an earlier clock, or the same clock and a lower id.
func (cc *coreCtx) precedes(o *coreCtx) bool {
	a, b := cc.cpu.Now(), o.cpu.Now()
	return a < b || a == b && cc.id < o.id
}

// Steps advances the machine by n trace references, interleaving cores
// in simulated-time order with no instruction target. It exists for
// benchmarks and profiling harnesses that meter the per-reference path.
func (m *Machine) Steps(n int) error {
	if n <= 0 {
		return nil
	}
	return m.advance(uint64(n), ^uint64(0), false)
}

// Drain fires every pending kernel event (controller daemons, in-flight
// fills) without advancing any core. Benchmarks call it after warm-up so
// the measured window starts from a quiesced event queue.
func (m *Machine) Drain() {
	m.kernel.Run(0)
}

// measureTarget is the absolute instruction count a measured phase of
// `measure` instructions runs to after `warmup`. It refuses an empty
// phase, and a sum that would wrap to a tiny (or huge) target.
func measureTarget(warmup, measure uint64) (uint64, error) {
	if measure == 0 {
		return 0, fmt.Errorf("system: measure phase must be positive")
	}
	if warmup+measure < warmup {
		return 0, fmt.Errorf("system: warmup+measure overflows uint64 (warmup=%d measure=%d)", warmup, measure)
	}
	return warmup + measure, nil
}

// beginMeasurement starts a measured phase of `measure` instructions per
// core and returns its instruction target. It zeroes every counter the
// Result reads, keeping microarchitectural state (cache contents, TLBs,
// row buffers).
func (m *Machine) beginMeasurement(measure uint64) (target uint64, err error) {
	if target, err = measureTarget(m.warmedTo, measure); err != nil {
		return 0, err
	}
	m.measuring = true
	m.inPkg.ResetStats()
	m.offPkg.ResetStats()
	for _, cc := range m.cores {
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
	*m.org.Stats() = org.Stats{}
	if m.sampler != nil {
		// Epoch zero starts here: rebase the sampler's cumulative
		// baseline on the freshly reset counters.
		m.sampler.Rebase(m.cumulative())
	}
	return target, nil
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
	if err := m.classify(cc, vpn, 1, a.Shared, a.LowReuse); err != nil {
		return err
	}

	// 1. Address translation.
	entry, lvl, tlbKey, super := m.tlbLookup(cc, vpn)
	m.tlbLookups++
	offset := a.VAddr & (config.PageSize - 1)
	if lvl == tlb.MissAll {
		m.tlbMisses++
		start := cc.cpu.Now()
		m.rec.Begin()
		var done sim.Tick
		if m.ctrl != nil {
			regionOff := offset
			if super {
				regionOff += (vpn & m.spMask) * config.PageSize
			}
			e, d, kind, err := m.ctrl.HandleTLBMiss(start, cc.id, cc.pt, vpn, regionOff)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry, done = e, d
			if m.measuring {
				m.kindLat[kind].Observe(float64(d - start))
			}
		} else {
			e, err := cc.walkPhysical(vpn)
			if err != nil {
				return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
			}
			entry = e
			// The walk model attributes its own latency components.
			done = m.walk.Walk(start, cc.id, vpn)
		}
		cc.refill(tlbKey, vpn, entry)
		cc.cpu.Block(done)
		if m.measuring {
			m.handlerLat.Observe(float64(done - start))
		}
		m.rec.CommitHandler(done - start)
	}

	// 2. On-die cache key.
	key := m.onDieBase(entry, vpn, super) + offset
	if m.ctrl != nil && entry.NC {
		m.ncAccesses++
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

// classify applies the OS's page classification for a batch of refs
// references to vpn: the shared-frame mapping, the hot-page filter and
// low-reuse non-cacheable marking. step passes one reference, the
// fast-forward path a whole page visit.
func (m *Machine) classify(cc *coreCtx, vpn, refs uint64, shared, lowReuse bool) error {
	// Inter-process shared pages (Section 3.5): map the common frame on
	// first touch. Without the alias table, the tagless design marks them
	// non-cacheable to avoid aliasing; PA-indexed designs share naturally.
	if shared {
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

	// Online hot-page filter (CHOP-style, cited as complementary): a
	// page's first access marks it non-cacheable, and it earns
	// cacheability once its access count reaches HotFilterThreshold (at
	// least 2). A batch applies every crossing it spans, in that order.
	if cc.hotCount != nil && !shared {
		old := cc.hotCount[vpn]
		n := old + uint32(refs)
		cc.hotCount[vpn] = n
		if old == 0 {
			if pte, err := cc.pt.Walk(vpn); err == nil && !pte.VC {
				pte.NC = true
			}
		}
		if thr := uint32(m.cfg.Tagless.HotFilterThreshold); old < thr && n >= thr {
			if pte, ok := cc.lookup(vpn); ok && pte.NC && !pte.VC {
				pte.NC = false
				// Shoot down the stale NC translation so the next miss
				// fills the now-hot page into the cache.
				cc.tlbs.Invalidate(vpn)
			}
		}
	}

	// Low-reuse pages become non-cacheable: in superpage mode
	// unconditionally, since caching them would over-fetch a whole region
	// for one block ("it would be safe to specify superpages as
	// non-cacheable", Section 3.5), and otherwise under the offline-profile
	// classification (Section 5.4). A cached page stays cached.
	if m.ctrl != nil && lowReuse && (m.spPages > 1 || m.ncThreshold > 0) {
		if pte, ok := cc.lookup(vpn); !ok || (!pte.VC && !pte.NC) {
			_ = cc.pt.SetNonCacheable(vpn)
		}
	}
	return nil
}

// tlbLookup looks vpn up in cc's TLBs and returns the entry, the level
// that held it, and its key. In superpage mode cacheable application
// pages translate at region granularity, one cTLB entry per region, and
// super reports a region key.
func (m *Machine) tlbLookup(cc *coreCtx, vpn uint64) (e tlb.Entry, lvl tlb.Level, key uint64, super bool) {
	key = vpn
	if m.spPages > 1 && vpn < trace.SingletonBase {
		if pte, ok := cc.lookup(vpn); !ok || pte.Super {
			key, super = m.regionKey(vpn), true
		}
	}
	e, lvl = cc.tlbs.Lookup(key)
	if lvl == tlb.InL2 && m.tlbShared != nil && m.ctrl != nil {
		// A shared-L2 hit refilled this core's L1 with a translation a
		// sibling installed: set this core's residence bit so the GIPT
		// keeps tracking every core that can hit the page.
		m.ctrl.NoteTLBResident(cc.id, e)
	}
	return e, lvl, key, super
}

// refill installs a missed translation under its lookup key. A
// superpage candidate that resolved to a 4KB non-cacheable mapping keys
// at 4KB granularity.
func (cc *coreCtx) refill(key, vpn uint64, e tlb.Entry) {
	if e.NC {
		key = vpn
	}
	cc.tlbs.Insert(key, e)
}

// walkPhysical resolves vpn to its physical frame for a design without
// the tagless controller.
func (cc *coreCtx) walkPhysical(vpn uint64) (tlb.Entry, error) {
	pte, err := cc.pt.Walk(vpn)
	if err != nil {
		return tlb.Entry{}, err
	}
	return tlb.Entry{Frame: pte.Frame}, nil
}

// onDieBase is the on-die cache key of the translated page's first byte:
// a cache address for cached pages in the tagless design (the page's
// offset within its region in superpage mode), a PABit-tagged physical
// address for its non-cacheable pages, a physical address otherwise.
func (m *Machine) onDieBase(e tlb.Entry, vpn uint64, super bool) uint64 {
	switch {
	case m.ctrl != nil && !e.NC && super:
		// Superpage region: Frame is the region CA.
		return e.Frame<<m.caShift + (vpn&m.spMask)*config.PageSize
	case m.ctrl != nil && e.NC:
		return paBit | e.Frame*config.PageSize
	default:
		return e.Frame * config.PageSize
	}
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
