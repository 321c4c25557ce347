package org

import (
	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

func init() {
	Register(config.NoL3, func(p Ports) (Organization, error) {
		return &NoL3{p: p}, nil
	})
}

// NoL3 is the baseline organization: every L2 miss is an off-package
// block access; there is no DRAM cache.
type NoL3 struct {
	noWarmState
	p Ports
}

// Access sends the miss to off-package DRAM.
func (o *NoL3) Access(r Request) {
	kind := kindOf(r.Write)
	issue(r.CPU, o.p.Observe, r.Dep, false, func(at sim.Tick) sim.Tick {
		res := o.p.OffPkg.Access(at, r.Key, config.BlockSize, kind)
		charge(o.p.Lat, lat.OffPkgQueue, lat.OffPkgService, res)
		return res.Done
	})
}

// Writeback sinks the dirty victim off-package.
func (o *NoL3) Writeback(at sim.Tick, key uint64) {
	res := o.p.OffPkg.Access(at, key, config.BlockSize, dram.Write)
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}
