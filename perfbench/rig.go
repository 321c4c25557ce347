package main

import (
	"fmt"
	"sort"
	"time"

	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/core"
	"taglessdram/internal/cpu"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/mmu"
	"taglessdram/internal/org"
	"taglessdram/internal/sim"
	"taglessdram/internal/system"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
	"taglessdram/internal/vm"
)

// The layer rig's fixed cell: one core running an mcf slice (footprint
// beyond the TLB reach, singleton pages that cold-fill) at the default
// 64x scale, warmed, then metered over a window of references.
const (
	rigWorkload = "mcf"
	rigShift    = 6
	rigWarmRefs = 200_000
	rigRefs     = 300_000 // references per timed window
	rigReps     = 7       // interleaved step / fast-forward repetitions
)

// rigDesigns is every registered organization, in the paper's order.
var rigDesigns = []config.L3Design{config.NoL3, config.BankInterleave, config.SRAMTag, config.Tagless,
	config.Ideal, config.AlloyBlock, config.Banshee}

// rigConfig is the facade's configuration for a design at the rig's scale.
func rigConfig(d config.L3Design, walk string) *config.SystemConfig {
	c := config.Default()
	c.Design = d
	c.InPkg.SizeBytes >>= rigShift
	c.OffPkg.SizeBytes >>= rigShift
	c.CacheSize >>= rigShift
	c.WalkModel = walk
	return c
}

func rigWorkloadFor(seed uint64) (system.Workload, error) {
	return system.SingleProgramOn(rigWorkload, 1, rigShift, seed)
}

// recordStream records the rig core's reference stream once, exactly as
// system.New seeds core 0's generator.
func recordStream(w system.Workload, n int) ([]trace.Access, error) {
	g, err := trace.NewThreadGroup(w.PerCore[0], 1, w.Seed)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Access, n)
	for i := range out {
		out[i] = g[0].Next()
	}
	return out, nil
}

// instructions retired by a stretch of the stream.
func instructions(refs []trace.Access) uint64 {
	var n uint64
	for _, a := range refs {
		n += uint64(a.Gap + 1)
	}
	return n
}

// timeIt runs f and returns its wall time.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// nsPer is the median over repetitions of nanoseconds per call: prep
// builds fresh state untimed and returns the timed body.
func nsPer(reps int, calls int, prep func() func()) float64 {
	if calls == 0 {
		return 0
	}
	xs := make([]float64, reps)
	for i := range xs {
		body := prep()
		xs[i] = float64(timeIt(body).Nanoseconds()) / float64(calls)
	}
	return median(xs)
}

// rigMem implements core.MemOps against the replay's devices, mirroring
// the machine's fill, evict and GIPT traffic.
type rigMem struct {
	in, off *dram.Device
	rec     *lat.Recorder
}

func (m *rigMem) FillPage(at sim.Tick, ppn, ca, offset uint64, pages int) sim.Tick {
	bytes := pages * config.PageSize
	base := ppn * config.PageSize
	crit := m.off.Access(at, base+offset&^(config.BlockSize-1), config.BlockSize, dram.Read)
	m.rec.Add(lat.OffPkgQueue, crit.QueueWait)
	m.rec.Add(lat.OffPkgService, crit.Service)
	if rest := bytes - config.BlockSize; rest > 0 {
		m.off.Access(crit.Done, base, rest, dram.Read)
	}
	m.in.Access(crit.Done, ca*uint64(bytes), bytes, dram.Write)
	return crit.Done
}

func (m *rigMem) EvictPage(at sim.Tick, ca, ppn uint64, pages int) sim.Tick {
	bytes := pages * config.PageSize
	r := m.in.Access(at, ca*uint64(bytes), bytes, dram.Read)
	return m.off.Access(r.Done, ppn*config.PageSize, bytes, dram.Write).Done
}

func (m *rigMem) GIPTUpdate(at sim.Tick) sim.Tick {
	cost := 2 * m.off.ColdWriteLatency(config.BlockSize)
	m.rec.Add(lat.GIPTUpdate, cost)
	m.off.AccountTraffic(2*config.BlockSize, dram.Write)
	return at + cost
}

// pipeline is one functional copy of the per-reference path built from
// the layers' public constructors: TLB hierarchy, page table, walk
// model, L1/L2, organization, devices, kernel and a CPU timing model.
type pipeline struct {
	cfg     *config.SystemConfig
	k       *sim.Kernel
	in, off *dram.Device
	rec     *lat.Recorder
	pt      *mmu.PageTable
	walk    vm.WalkModel
	tl      *tlb.Hierarchy
	l1, l2  *cache.Cache
	c       *cpu.Core
	o       org.Organization
	ctrl    *core.Controller
}

func newPipeline(cfg *config.SystemConfig) (*pipeline, error) {
	p := &pipeline{cfg: cfg, k: sim.NewKernel(), rec: &lat.Recorder{}}
	p.in = dram.New("in-pkg", cfg.InPkg, cfg.CPU.FreqGHz)
	p.off = dram.New("off-pkg", cfg.OffPkg, cfg.CPU.FreqGHz)
	region := uint64(cfg.OffPkg.SizeBytes) / 16
	base := uint64(cfg.OffPkg.SizeBytes) - region
	p.pt = mmu.NewPageTable(0, mmu.NewFrameAllocator(base/config.PageSize))
	var err error
	if p.walk, err = vm.NewWalk(cfg.EffectiveWalkModel(), vm.Ports{Cfg: cfg, OffPkg: p.off, Rec: p.rec, PTBase: base, PTSize: region}); err != nil {
		return nil, err
	}
	topo, err := vm.NewTopology("private", cfg.L1TLB, cfg.L2TLB, cfg.CPU.Cores)
	if err != nil {
		return nil, err
	}
	p.tl = topo.Cores[0]
	p.l1, p.l2 = cache.New(cfg.L1D), cache.New(cfg.L2)
	p.c = cpu.New(0, cfg.CPU.IssueWidth, cfg.CPU.MSHRs)
	p.o, err = org.New(cfg.Design, org.Ports{
		Cfg: cfg, InPkg: p.in, OffPkg: p.off, Kernel: p.k,
		Mem:     &rigMem{in: p.in, off: p.off, rec: p.rec},
		Observe: func(sim.Tick, bool) {},
		Lat:     p.rec,
		Walk:    p.walk.Walk,
	})
	if err != nil {
		return nil, err
	}
	if tg, ok := p.o.(*org.Tagless); ok {
		p.ctrl = tg.Controller()
		p.ctrl.EvictHook = func(_ sim.Tick, ca, _ uint64, _ bool) {
			p.l1.InvalidateRange(ca*config.PageSize, config.PageSize)
			p.l2.InvalidateRange(ca*config.PageSize, config.PageSize)
		}
		p.ctrl.ShootdownHook = func(_, vpn, _ uint64) { p.tl.Invalidate(vpn) }
		p.tl.OnEvict = func(_ uint64, e tlb.Entry) { p.ctrl.NoteTLBEviction(0, e) }
	}
	return p, nil
}

// Recorded inputs of each downstream layer, captured while the build
// pass drives the layers above it.
type tlbMiss struct {
	at     sim.Tick
	vpn    uint64
	offset uint64
}

type l1Op struct {
	key   uint64
	write bool
}

type l2Op struct {
	key       uint64
	write     bool
	markDirty uint64 // dirty L1 victim sunk into L2 first, when hasMark
	hasMark   bool
}

type l2Miss struct {
	instr              int // instructions retired since the previous miss
	key, frame, offset uint64
	nc, write, dep     bool
	writeback          uint64 // dirty L2 victim written back first, when hasWB
	hasWB              bool
}

type replay struct {
	// Every layer input over the whole stream; w* index where the
	// measured window starts in each list.
	entries []tlb.Entry // per reference, the translation used
	misses  []tlbMiss
	l1      []l1Op
	l2      []l2Op
	l2miss  []l2Miss

	wMiss, wL1, wL2, wL2miss int

	// Call counts of the measured window (events: the whole run).
	l1Hits, l2Hits        int
	devAccesses, devBytes uint64
	events                uint64
	evictions             uint64
}

func (rp *replay) measuredMisses() []tlbMiss { return rp.misses[rp.wMiss:] }
func (rp *replay) measuredL2Miss() []l2Miss  { return rp.l2miss[rp.wL2miss:] }

// build drives the pipeline over the whole stream and records each
// layer's input; references at index >= warm form the measured window.
func (p *pipeline) build(refs []trace.Access, warm int) (*replay, error) {
	rp := &replay{}
	var lastInstr, instr int
	var dev0, bytes0, evict0 uint64
	for i, a := range refs {
		if i == warm {
			rp.wMiss, rp.wL1, rp.wL2, rp.wL2miss = len(rp.misses), len(rp.l1), len(rp.l2), len(rp.l2miss)
			dev0 = p.in.Accesses + p.off.Accesses
			bytes0 = p.in.BytesTransferred() + p.off.BytesTransferred()
			if p.ctrl != nil {
				evict0 = p.ctrl.Stats().Evictions
			}
		}
		measuring := i >= warm
		p.c.Retire(a.Gap + 1)
		instr += a.Gap + 1
		p.k.Advance(p.c.Now())
		vpn := a.VAddr >> 12
		offset := a.VAddr & (config.PageSize - 1)
		entry, lvl := p.tl.Lookup(vpn)
		if lvl == tlb.MissAll {
			at := p.c.Now()
			rp.misses = append(rp.misses, tlbMiss{at, vpn, offset})
			var done sim.Tick
			if p.ctrl != nil {
				e, d, _, err := p.ctrl.HandleTLBMiss(at, 0, p.pt, vpn, offset)
				if err != nil {
					return nil, err
				}
				entry, done = e, d
			} else {
				pte, err := p.pt.Walk(vpn)
				if err != nil {
					return nil, err
				}
				entry = tlb.Entry{Frame: pte.Frame}
				done = p.walk.Walk(at, 0, vpn)
			}
			p.tl.Insert(vpn, entry)
			p.c.Block(done)
		}
		rp.entries = append(rp.entries, entry)
		key := entry.Frame*config.PageSize + offset
		if p.ctrl != nil && entry.NC {
			key |= org.PABit
		}
		rp.l1 = append(rp.l1, l1Op{key, a.Write})
		hit, victim, hasVictim := p.l1.Access(key, a.Write)
		if hit {
			if measuring {
				rp.l1Hits++
			}
			continue
		}
		op := l2Op{key: key, write: a.Write}
		if hasVictim && victim.Dirty {
			op.markDirty, op.hasMark = victim.Addr, true
			if !p.l2.MarkDirty(victim.Addr) {
				p.o.Writeback(p.c.Now(), victim.Addr)
			}
		}
		rp.l2 = append(rp.l2, op)
		hit, victim, hasVictim = p.l2.Access(key, a.Write)
		if hit {
			if measuring {
				rp.l2Hits++
			}
			continue
		}
		mr := l2Miss{instr: instr - lastInstr, key: key, frame: entry.Frame, offset: offset,
			nc: entry.NC, write: a.Write, dep: a.Dependent}
		lastInstr = instr
		if hasVictim && victim.Dirty {
			mr.writeback, mr.hasWB = victim.Addr, true
			p.o.Writeback(p.c.Now(), victim.Addr)
		}
		rp.l2miss = append(rp.l2miss, mr)
		p.o.Access(org.Request{CPU: p.c, Key: key, Frame: entry.Frame, Offset: offset,
			NC: entry.NC, Write: a.Write, Dep: a.Dependent})
	}
	p.c.Drain()
	p.k.Run(0)
	rp.devAccesses = p.in.Accesses + p.off.Accesses - dev0
	rp.devBytes = p.in.BytesTransferred() + p.off.BytesTransferred() - bytes0
	rp.events = p.k.Executed()
	if p.ctrl != nil {
		rp.evictions = p.ctrl.Stats().Evictions - evict0
	}
	return rp, nil
}

// designRow is one organization's account of host time per reference.
type designRow struct {
	design               string
	stepNs, ffNs         []float64 // per repetition
	step, ff             float64   // medians
	tlbMissPerRef        float64
	l1MissPerRef         float64
	l2MissPerRef         float64
	devPerRef            float64
	eventsPerRef         float64
	evictPerRef          float64
	l1Ns, l2Ns           float64
	l1HitFrac, l2HitFrac float64
	walkNs               float64 // per TLB miss: mmu+vm walk, or the cTLB miss handler
	ptWalkNs             float64 // per TLB miss: PageTable.Walk alone
	orgNs, orgFastNs     float64 // per L2 miss
	parts                []part  // the explained sum, term by term
	explained            float64
	// Consistency: the replay's counts against the machine's Result for
	// the same cell and window.
	counts []countCheck
}

type part struct {
	name    string
	perCall float64
	perRef  float64 // calls per reference
}

type countCheck struct {
	name           string
	replay, result uint64
}

func (c countCheck) mismatch() string {
	if c.replay == c.result {
		return "ok"
	}
	d := float64(c.replay) - float64(c.result)
	if c.result != 0 {
		return fmt.Sprintf("mismatch %+.1f%%", 100*d/float64(c.result))
	}
	return fmt.Sprintf("mismatch %+.0f", d)
}

// meterMachine times Machine.Steps and Machine.FastForwardRefs on the
// warmed cell, interleaved repetition by repetition.
func meterMachine(cfg *config.SystemConfig, w system.Workload, reps int) (step, ff []float64, err error) {
	m, err := system.New(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Steps(rigWarmRefs); err != nil {
		return nil, nil, err
	}
	m.Drain()
	for r := 0; r < reps; r++ {
		d := timeIt(func() { err = m.Steps(rigRefs) })
		if err != nil {
			return nil, nil, err
		}
		step = append(step, float64(d.Nanoseconds())/rigRefs)
		d = timeIt(func() { err = m.FastForwardRefs(rigRefs) })
		if err != nil {
			return nil, nil, err
		}
		ff = append(ff, float64(d.Nanoseconds())/rigRefs)
	}
	return step, ff, nil
}

// meterDesign builds one design's row: machine timings, the replay's
// per-layer costs and counts, and the Result of the same window.
func meterDesign(d config.L3Design, w system.Workload, refs []trace.Access) (*designRow, *replay, error) {
	cfg := rigConfig(d, "")
	row := &designRow{design: d.String()}
	var err error
	if row.stepNs, row.ffNs, err = meterMachine(cfg, w, rigReps); err != nil {
		return nil, nil, err
	}
	row.step, row.ff = median(row.stepNs), median(row.ffNs)

	p, err := newPipeline(cfg)
	if err != nil {
		return nil, nil, err
	}
	rp, err := p.build(refs, rigWarmRefs)
	if err != nil {
		return nil, nil, err
	}
	n := float64(rigRefs)
	mL1, mL2 := rp.l1[rp.wL1:], rp.l2[rp.wL2:]
	row.tlbMissPerRef = float64(len(rp.measuredMisses())) / n
	row.l1MissPerRef = float64(len(mL2)) / n
	row.l2MissPerRef = float64(len(rp.measuredL2Miss())) / n
	row.devPerRef = float64(rp.devAccesses) / n
	row.evictPerRef = float64(rp.evictions) / n
	row.l1HitFrac = float64(rp.l1Hits) / float64(len(mL1))
	if len(mL2) > 0 {
		row.l2HitFrac = float64(rp.l2Hits) / float64(len(mL2))
	}

	// On-die caches alone: fresh arrays warmed by the warm-up stretch of
	// the same key streams, then the measured stretch timed.
	row.l1Ns = nsPer(rigReps, len(mL1), func() func() {
		c := cache.New(cfg.L1D)
		for _, op := range rp.l1[:rp.wL1] {
			c.Access(op.key, op.write)
		}
		return func() {
			for _, op := range mL1 {
				c.Access(op.key, op.write)
			}
		}
	})
	l2run := func(c *cache.Cache, ops []l2Op) {
		for _, op := range ops {
			if op.hasMark {
				c.MarkDirty(op.markDirty)
			}
			c.Access(op.key, op.write)
		}
	}
	row.l2Ns = nsPer(rigReps, len(mL2), func() func() {
		c := cache.New(cfg.L2)
		l2run(c, rp.l2[:rp.wL2])
		return func() { l2run(c, mL2) }
	})

	// Translation: the cTLB miss handler for the tagless design (it walks
	// and fills), otherwise the page-table walk plus the walk timing model.
	if p.ctrl != nil {
		if row.walkNs, err = meterTLBMissHandler(cfg, refs, rp); err != nil {
			return nil, nil, err
		}
	} else {
		row.ptWalkNs = meterPTWalk(p.pt, rp.measuredMisses())
		row.walkNs = row.ptWalkNs + meterWalkModel(cfg, "fixed", rp)
	}

	// The organization alone over the recorded L2-miss stream, on fresh
	// devices (its device traffic is inside its time).
	if row.orgNs, err = meterOrg(cfg, rp, false); err != nil {
		return nil, nil, err
	}
	if row.orgFastNs, err = meterOrg(cfg, rp, true); err != nil {
		return nil, nil, err
	}

	// The machine's own counters for the same cell and window.
	m, err := system.New(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run(instructions(refs[:rigWarmRefs]), instructions(refs[rigWarmRefs:]))
	if err != nil {
		return nil, nil, err
	}
	row.eventsPerRef = float64(rp.events) / float64(len(refs))
	row.counts = []countCheck{
		{"TLB misses", uint64(len(rp.measuredMisses())), res.TLBMisses},
		{"L2 misses", uint64(len(rp.measuredL2Miss())), res.L3Accesses},
		{"device bytes", rp.devBytes, res.InPkgBytes + res.OffPkgBytes},
		{"kernel events", rp.events, res.KernelEvents},
	}
	return row, rp, nil
}

// meterPTWalk times PageTable.Walk over the recorded misses (the table is
// already populated, as in steady state); ns per miss.
func meterPTWalk(pt *mmu.PageTable, misses []tlbMiss) float64 {
	return nsPer(rigReps, len(misses), func() func() {
		return func() {
			for _, m := range misses {
				pt.Walk(m.vpn)
			}
		}
	})
}

// meterWalkModel times one walk timing model over the measured misses on
// a fresh off-package device warmed by the warm-up misses; ns per miss.
func meterWalkModel(cfg *config.SystemConfig, name string, rp *replay) float64 {
	region := uint64(cfg.OffPkg.SizeBytes) / 16
	base := uint64(cfg.OffPkg.SizeBytes) - region
	misses := rp.measuredMisses()
	return nsPer(rigReps, len(misses), func() func() {
		off := dram.New("off-pkg", cfg.OffPkg, cfg.CPU.FreqGHz)
		wm, err := vm.NewWalk(name, vm.Ports{Cfg: cfg, OffPkg: off, Rec: &lat.Recorder{}, PTBase: base, PTSize: region})
		if err != nil {
			panic(err) // the registry's own names only
		}
		for _, m := range rp.misses[:rp.wMiss] {
			wm.Walk(m.at, 0, m.vpn)
		}
		return func() {
			for _, m := range misses {
				wm.Walk(m.at, 0, m.vpn)
			}
		}
	})
}

// meterTLBMissHandler times Controller.HandleTLBMiss, with the kernel
// events its fills schedule, over the measured misses on a fresh pipeline
// replayed through the warm-up stretch first; ns per miss.
func meterTLBMissHandler(cfg *config.SystemConfig, refs []trace.Access, rp *replay) (float64, error) {
	misses := rp.measuredMisses()
	var xs []float64
	for r := 0; r < 3 && len(misses) > 0; r++ {
		p, err := newPipeline(cfg)
		if err != nil {
			return 0, err
		}
		if _, err := p.build(refs[:rigWarmRefs], rigWarmRefs); err != nil {
			return 0, err
		}
		d := timeIt(func() {
			for _, m := range misses {
				p.k.Advance(m.at)
				if _, _, _, e := p.ctrl.HandleTLBMiss(m.at, 0, p.pt, m.vpn, m.offset); e != nil {
					err = e
					return
				}
			}
		})
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d.Nanoseconds())/float64(len(misses)))
	}
	return median(xs), nil
}

// meterOrg times Organization.Access (or its FastPath) over the measured
// L2 misses and their dirty write-backs, on a fresh organization warmed by
// the warm-up misses. The CPU model retires each miss's instruction gap so
// MSHR timing stays realistic; ns per L2 miss.
func meterOrg(cfg *config.SystemConfig, rp *replay, fast bool) (float64, error) {
	misses := rp.measuredL2Miss()
	var xs []float64
	for r := 0; r < rigReps && len(misses) > 0; r++ {
		p, err := newPipeline(cfg)
		if err != nil {
			return 0, err
		}
		fp, _ := p.o.(org.FastPath)
		if fast && fp == nil {
			return 0, fmt.Errorf("%v has no fast path", cfg.Design)
		}
		c := p.c
		slow := func(ms []l2Miss) {
			for _, m := range ms {
				c.Retire(m.instr)
				if m.hasWB {
					p.o.Writeback(c.Now(), m.writeback)
				}
				p.o.Access(org.Request{CPU: c, Key: m.key, Frame: m.frame, Offset: m.offset, NC: m.nc, Write: m.write, Dep: m.dep})
			}
		}
		quick := func(ms []l2Miss) {
			fp.FastBegin()
			for _, m := range ms {
				c.Retire(m.instr)
				if m.hasWB {
					fp.FastWriteback(c.Now(), m.writeback)
				}
				fp.FastAccess(org.FastRequest{At: c.Now(), Key: m.key, Frame: m.frame, Offset: m.offset, NC: m.nc, Write: m.write})
			}
			fp.FastEnd()
		}
		body := slow
		if fast {
			body = quick
		}
		body(rp.l2miss[:rp.wL2miss])
		d := timeIt(func() { body(misses) })
		xs = append(xs, float64(d.Nanoseconds())/float64(len(misses)))
	}
	return median(xs), nil
}

// meterTLB times the TLB hierarchy alone: Lookup per reference plus the
// Insert of each miss's recorded translation; ns per lookup.
func meterTLB(cfg *config.SystemConfig, refs []trace.Access, rp *replay) (float64, error) {
	var err error
	ns := nsPer(rigReps, len(refs)-rigWarmRefs, func() func() {
		topo, terr := vm.NewTopology("private", cfg.L1TLB, cfg.L2TLB, cfg.CPU.Cores)
		if terr != nil {
			err = terr
			return func() {}
		}
		h := topo.Cores[0]
		run := func(from, to int) {
			for i := from; i < to; i++ {
				vpn := refs[i].VAddr >> 12
				if _, lvl := h.Lookup(vpn); lvl == tlb.MissAll {
					h.Insert(vpn, rp.entries[i])
				}
			}
		}
		run(0, rigWarmRefs)
		return func() { run(rigWarmRefs, len(refs)) }
	})
	return ns, err
}

// meterDRAM times Device.Access alone over the measured L2-miss
// addresses as off-package block accesses; ns per access.
func meterDRAM(cfg *config.SystemConfig, rp *replay) float64 {
	misses := rp.measuredL2Miss()
	return nsPer(rigReps, len(misses), func() func() {
		d := dram.New("off-pkg", cfg.OffPkg, cfg.CPU.FreqGHz)
		var at sim.Tick
		run := func(ms []l2Miss) {
			for _, m := range ms {
				at += sim.Tick(m.instr)
				kind := dram.Read
				if m.write {
					kind = dram.Write
				}
				d.Access(at, m.key&^org.PABit, config.BlockSize, kind)
			}
		}
		run(rp.l2miss[:rp.wL2miss])
		return func() { run(misses) }
	})
}

// meterKernel times scheduling and firing n events with a short pending
// queue, as the machine keeps one (a few fills and daemons in flight);
// ns per event.
func meterKernel(n int) float64 {
	const batch = 8
	return nsPer(rigReps, n/batch*batch, func() func() {
		k := sim.NewKernel()
		fn := func(sim.Tick) {}
		return func() {
			var t sim.Tick
			for i := 0; i < n/batch; i++ {
				for j := sim.Tick(batch); j > 0; j-- {
					k.At(t+j, fn)
				}
				t += batch + 1
				k.Advance(t)
			}
		}
	})
}

// meterInvalidateRange times InvalidateRange of one page on warmed L1 and
// L2 arrays, over the pages of the measured window; ns per call.
func meterInvalidateRange(cfg *config.SystemConfig, rp *replay) float64 {
	seen := map[uint64]bool{}
	var bases []uint64
	for _, e := range rp.entries[rigWarmRefs:] {
		if b := e.Frame * config.PageSize; !seen[b] && len(bases) < 4096 {
			seen[b] = true
			bases = append(bases, b)
		}
	}
	return nsPer(rigReps, 2*len(bases), func() func() {
		l1, l2 := cache.New(cfg.L1D), cache.New(cfg.L2)
		for _, op := range rp.l1 {
			l1.Access(op.key, op.write)
		}
		for _, op := range rp.l2 {
			l2.Access(op.key, op.write)
		}
		return func() {
			for _, b := range bases {
				l1.InvalidateRange(b, config.PageSize)
				l2.InvalidateRange(b, config.PageSize)
			}
		}
	})
}

// explain sums a design's layer costs per reference; the remainder of
// the step cost is the unexplained row.
func (row *designRow) explain(trNext, tlbNs, eventNs, invNs float64, cores int) {
	row.parts = []part{
		{"trace.next", trNext, 1},
		{"tlb.lookup", tlbNs, 1},
		{"translate (mmu+vm walk / core cTLB miss)", row.walkNs, row.tlbMissPerRef},
		{"cache.l1_access", row.l1Ns, 1},
		{"cache.l2_access", row.l2Ns, row.l1MissPerRef},
		{"org.access (incl. dram)", row.orgNs, row.l2MissPerRef},
		{"cache.invalidate_range", invNs, row.evictPerRef * float64(2*cores)},
	}
	if row.design != config.Tagless.String() {
		// The cTLB miss handler's time already holds the events its
		// fills fire; other designs fire theirs in the step's advance.
		row.parts = append(row.parts, part{"sim.event", eventNs, row.eventsPerRef})
	}
	row.explained = 0
	for _, p := range row.parts {
		row.explained += p.perCall * p.perRef
	}
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
