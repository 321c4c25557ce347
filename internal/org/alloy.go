package org

import (
	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/dramcache"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

func init() {
	Register(config.AlloyBlock, func(p Ports) (Organization, error) {
		return &Alloy{p: p, cache: dramcache.NewBlockCache(p.Cfg.CacheSize)}, nil
	})
}

// Alloy is the block-based cache class of Table 2: one in-package TAD
// read serves tag check and data together; a miss adds a serial
// off-package block fetch (the Alloy SERIAL organization, no hit
// predictor) and a background TAD fill plus any dirty-victim write-back.
type Alloy struct {
	stats
	p     Ports
	cache *dramcache.BlockCache
}

// Access performs the TAD probe and the hit read or miss fill.
func (o *Alloy) Access(r Request) {
	kind := kindOf(r.Write)
	slot, hit := o.cache.Lookup(r.Key, r.Write)
	tad := o.cache.TADAddr(slot)
	if hit {
		issue(r.CPU, o.p.Observe, r.Dep, true, func(at sim.Tick) sim.Tick {
			res := o.p.InPkg.Access(at, tad, dramcache.TADBytes, kind)
			charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
			return res.Done
		})
		return
	}
	_, victim, hasVictim := o.cache.Fill(r.Key, r.Write)
	issue(r.CPU, o.p.Observe, r.Dep, false, func(at sim.Tick) sim.Tick {
		res := o.p.InPkg.Access(at, tad, dramcache.TADBytes, dram.Read) // tag probe
		off := o.p.OffPkg.Access(res.Done, r.Key, config.BlockSize, dram.Read)
		// Stall attribution: TAD probe (incl. its queueing) plus the
		// off-package fetch's queue/service span the full off.Done-at
		// window.
		o.p.Lat.Add(lat.VictimProbe, res.Done-at)
		charge(o.p.Lat, lat.OffPkgQueue, lat.OffPkgService, off)
		// Fill and write-back stream in the background.
		o.p.InPkg.Access(off.Done, tad, dramcache.TADBytes, dram.Write)
		if hasVictim && victim.Dirty {
			wb := o.p.OffPkg.Access(off.Done, victim.BlockAddr, config.BlockSize, dram.Write)
			o.p.Lat.AddBackground(lat.Writeback, wb.Done-off.Done)
		}
		return off.Done
	})
}

// Writeback sinks the dirty victim into its TAD slot when resident
// (MarkDirty confirms residence and returns the slot — no extra probe),
// off-package otherwise.
func (o *Alloy) Writeback(at sim.Tick, key uint64) {
	var res dram.Result
	if slot, ok := o.cache.MarkDirty(key); ok {
		res = o.p.InPkg.Access(at, o.cache.TADAddr(slot), config.BlockSize, dram.Write)
	} else {
		res = o.p.OffPkg.Access(at, key, config.BlockSize, dram.Write)
	}
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}

// FastAccess applies the direct-mapped state transitions of Access —
// dirtiness on a hit, displacement and fill on a miss — with no device
// traffic.
func (o *Alloy) FastAccess(r FastRequest) {
	if _, hit := o.cache.Lookup(r.Key, r.Write); hit {
		return
	}
	o.cache.Fill(r.Key, r.Write)
}

// FastWriteback marks the victim's line dirty when resident.
func (o *Alloy) FastWriteback(_ sim.Tick, key uint64) {
	o.cache.MarkDirty(key)
}

// Visit hands c the block cache's slots.
func (o *Alloy) Visit(c *flat.Codec) { o.cache.Visit(c) }
