package org

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

func init() {
	Register(config.BankInterleave, func(p Ports) (Organization, error) {
		inPages := uint64(p.Cfg.CachePages())
		if inPages == 0 {
			return nil, fmt.Errorf("org: BI needs at least one in-package page, has %d bytes", p.Cfg.CacheSize)
		}
		offRatio := uint64(p.Cfg.OffPkg.SizeBytes / p.Cfg.InPkg.SizeBytes)
		if offRatio < 1 {
			offRatio = 1
		}
		// One page in every offRatio+1 lands in-package: the
		// capacity-proportional share (1 GB of 9 GB by default).
		return &Interleave{p: p, inPages: inPages, offPages: inPages * offRatio, stride: offRatio + 1}, nil
	})
}

// Interleave is the "BI" heterogeneous-memory baseline: in-package DRAM
// is mapped into the physical address space and pages interleave
// OS-obliviously between the two devices. The mapping is a pure function
// of the address, so the fast path has nothing to warm and there is no
// state to checkpoint.
type Interleave struct {
	noWarmState
	p                 Ports
	inPages, offPages uint64 // device capacities in pages
	stride            uint64 // one in-package page every stride pages
}

// MapPage translates a physical page number to its device-local page and
// device: page k*stride lives in-package (wrapping within the region),
// every other page off-package.
func (o *Interleave) MapPage(ppn uint64) (devPage uint64, inPkg bool) {
	if ppn%o.stride == 0 {
		return (ppn / o.stride) % o.inPages, true
	}
	return (ppn - ppn/o.stride - 1) % o.offPages, false
}

// Access routes the miss to whichever device the page interleaves onto.
func (o *Interleave) Access(r Request) {
	kind := kindOf(r.Write)
	devPage, inPkg := o.MapPage(r.Frame)
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
	devPage, inPkg := o.MapPage(key / config.PageSize)
	addr := devPage*config.PageSize + key%config.PageSize
	var res dram.Result
	if inPkg {
		res = o.p.InPkg.Access(at, addr, config.BlockSize, dram.Write)
	} else {
		res = o.p.OffPkg.Access(at, addr, config.BlockSize, dram.Write)
	}
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}
