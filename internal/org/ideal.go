package org

import (
	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

func init() {
	Register(config.Ideal, func(p Ports) (Organization, error) {
		o := &Ideal{p: p}
		if cs := uint64(p.Cfg.CacheSize); cs > 0 && cs&(cs-1) == 0 {
			o.mask = cs - 1
		}
		return o, nil
	})
}

// Ideal stores all data in in-package DRAM: every access hits, folded
// into the in-package capacity.
type Ideal struct {
	noWarmState
	p    Ports
	mask uint64 // CacheSize-1 when a power of two, else 0
}

// addr folds a physical address into the in-package capacity (mask when
// the capacity is a power of two, modulo otherwise).
func (o *Ideal) addr(key uint64) uint64 {
	if o.mask != 0 {
		return key & o.mask
	}
	return key % uint64(o.p.Cfg.CacheSize)
}

// Access is always an in-package block hit.
func (o *Ideal) Access(r Request) {
	kind := kindOf(r.Write)
	issue(r.CPU, o.p.Observe, r.Dep, true, func(at sim.Tick) sim.Tick {
		res := o.p.InPkg.Access(at, o.addr(r.Key), config.BlockSize, kind)
		charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
		return res.Done
	})
}

// Writeback sinks the dirty victim in-package.
func (o *Ideal) Writeback(at sim.Tick, key uint64) {
	res := o.p.InPkg.Access(at, o.addr(key), config.BlockSize, dram.Write)
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}
