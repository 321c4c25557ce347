package org

import (
	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/dramcache"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

func init() {
	Register(config.BankInterleave, func(p Ports) (Organization, error) {
		cachePages := uint64(p.Cfg.CachePages())
		offRatio := uint64(p.Cfg.OffPkg.SizeBytes / p.Cfg.InPkg.SizeBytes)
		if offRatio < 1 {
			offRatio = 1
		}
		return &Interleave{
			p:     p,
			inter: dramcache.NewBankInterleaver(cachePages, cachePages*offRatio),
		}, nil
	})
}

// Interleave is the "BI" heterogeneous-memory baseline: in-package DRAM
// is mapped into the physical address space and pages interleave
// OS-obliviously between the two devices. The mapping is a pure function
// of the address, so the fast path has nothing to warm and there is no
// state to checkpoint.
type Interleave struct {
	noWarmState
	p     Ports
	inter *dramcache.BankInterleaver
}

// Access routes the miss to whichever device the page interleaves onto.
func (o *Interleave) Access(r Request) {
	kind := kindOf(r.Write)
	devPage, inPkg := o.inter.Map(r.Frame)
	issue(r.CPU, o.p.Observe, r.Dep, inPkg, func(at sim.Tick) sim.Tick {
		var res dram.Result
		if inPkg {
			res = o.p.InPkg.Access(at, devPage*config.PageSize+r.Offset, config.BlockSize, kind)
			charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
		} else {
			res = o.p.OffPkg.Access(at, devPage*config.PageSize+r.Offset, config.BlockSize, kind)
			charge(o.p.Lat, lat.OffPkgQueue, lat.OffPkgService, res)
		}
		return res.Done
	})
}

// Writeback routes the dirty victim to the device its page maps onto.
func (o *Interleave) Writeback(at sim.Tick, key uint64) {
	devPage, inPkg := o.inter.Map(key / config.PageSize)
	addr := devPage*config.PageSize + key%config.PageSize
	var res dram.Result
	if inPkg {
		res = o.p.InPkg.Access(at, addr, config.BlockSize, dram.Write)
	} else {
		res = o.p.OffPkg.Access(at, addr, config.BlockSize, dram.Write)
	}
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}
