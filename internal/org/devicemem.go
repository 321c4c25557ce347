package org

import (
	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

// DeviceMem implements core.MemOps against the two DRAM devices: the
// device traffic of a page fill, a page eviction and a GIPT update. It is
// the one place a page fill's device accesses are issued — the tagless
// controller, SRAM and Banshee all reach it through Ports.Mem.
type DeviceMem struct {
	InPkg, OffPkg *dram.Device
	Lat           *lat.Recorder
}

// FillPage performs a critical-block-first fill of `pages` pages: the
// faulting block is read first and unblocks the requester; the rest of the
// region streams off-package and is written into the cache behind it,
// occupying both devices' banks and buses (over-fetching costs bandwidth,
// not stall).
func (m *DeviceMem) FillPage(at sim.Tick, ppn, ca, offset uint64, pages int) sim.Tick {
	bytes := pages * config.PageSize
	base := ppn * config.PageSize
	blockOff := offset &^ (config.BlockSize - 1)
	crit := m.OffPkg.Access(at, base+blockOff, config.BlockSize, dram.Read)
	// The critical block is the fill's stall contribution; the streaming
	// remainder and the in-package write below are bandwidth only.
	charge(m.Lat, lat.OffPkgQueue, lat.OffPkgService, crit)
	if rest := bytes - config.BlockSize; rest > 0 {
		// Remainder of the region streams behind the critical block.
		m.OffPkg.Access(crit.Done, base, rest, dram.Read)
	}
	m.InPkg.Access(crit.Done, ca*uint64(bytes), bytes, dram.Write)
	return crit.Done
}

// EvictPage: in-package region read then off-package write-back.
func (m *DeviceMem) EvictPage(at sim.Tick, ca, ppn uint64, pages int) sim.Tick {
	bytes := pages * config.PageSize
	r := m.InPkg.Access(at, ca*uint64(bytes), bytes, dram.Read)
	w := m.OffPkg.Access(r.Done, ppn*config.PageSize, bytes, dram.Write)
	return w.Done
}

// GIPTUpdate charges the paper's conservative cost of two full off-package
// writes (Section 3.4). The writes are short, high-priority metadata that a
// real controller schedules ahead of the streaming fill, so they are
// modeled as fixed closed-bank write latency with energy and traffic
// accounted on the device but no bus queueing.
func (m *DeviceMem) GIPTUpdate(at sim.Tick) sim.Tick {
	cost := 2 * m.OffPkg.ColdWriteLatency(config.BlockSize)
	m.Lat.Add(lat.GIPTUpdate, cost)
	m.OffPkg.AccountTraffic(2*config.BlockSize, dram.Write)
	return at + cost
}

// fillPage brings r's page into the in-package frame slot for a
// page-granularity design, delay cycles (the design's tag probe) after
// the request: a dirty victim's page is first written back in the
// background, then the page arrives critical block first — the requester
// resumes when its block arrives (Equation 3's MissRate_L3 ×
// PageAccessTime term) and the rest streams in behind. The device order,
// victim write-back before the critical block, is the one the DRAM
// model's bank and bus state depend on.
func fillPage(p *Ports, r Request, delay sim.Tick, slot, victimPPN uint64, victimDirty bool) {
	at := r.CPU.Now()
	start := at + delay
	if victimDirty {
		p.Lat.AddBackground(lat.Writeback, p.Mem.EvictPage(start, slot, victimPPN, 1)-start)
	}
	done := p.Mem.FillPage(start, r.Frame, slot, r.Offset, 1)
	r.CPU.Block(done)
	p.Observe(done-at, false)
}
