package org

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/core"
	"taglessdram/internal/dram"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

func init() {
	Register(config.Tagless, func(p Ports) (Organization, error) {
		spPages := uint64(1)
		if sp := p.Cfg.Tagless.SuperpagePages; sp > 1 {
			spPages = uint64(sp)
		}
		if spPages&(spPages-1) != 0 {
			return nil, fmt.Errorf("org: superpage region of %d pages is not a power of two", spPages)
		}
		o := &Tagless{p: p}
		for sp := spPages; sp > 1; sp >>= 1 {
			o.caShift++
		}
		o.caShift += 12 // log2(spPages * config.PageSize)
		o.ctrl = core.NewController(core.Config{
			Blocks:              p.Cfg.CachePages() / int(spPages),
			RegionPages:         int(spPages),
			Alpha:               p.Cfg.Tagless.Alpha,
			Policy:              p.Cfg.Tagless.Policy,
			WalkCycles:          p.Cfg.PageWalkCycles,
			WalkFunc:            p.Walk,
			SynchronousEviction: p.Cfg.Tagless.SynchronousEviction,
			CachedGIPT:          p.Cfg.Tagless.CachedGIPT,
			SharedAliasTable:    p.Cfg.Tagless.SharedAliasTable,
			Lat:                 p.Lat,
			Stats:               &o.st.Ctrl,
		}, p.Mem, p.Kernel)
		return o, nil
	})
}

// Tagless is the proposed cTLB-based organization: the controller owns
// the GIPT, free queue and eviction daemon; a cTLB hit guarantees a cache
// hit, so the access path is a bare in-package block access.
type Tagless struct {
	stats
	p       Ports
	ctrl    *core.Controller
	caShift uint // log2(spPages*PageSize): CA bytes → block number
}

// Controller exposes the cTLB controller: the machine wires its miss
// handler, eviction hooks and TLB-residence tracking into the
// translation path (addressing concerns that live outside this package).
func (o *Tagless) Controller() *core.Controller { return o.ctrl }

// Access serves the miss: an off-package block access for non-cacheable
// pages (Table 1), a bare in-package block access otherwise.
func (o *Tagless) Access(r Request) {
	kind := kindOf(r.Write)
	if r.NC {
		// Non-cacheable page: off-package block access (Table 1).
		issue(r.CPU, o.p.Observe, r.Dep, false, func(at sim.Tick) sim.Tick {
			res := o.p.OffPkg.Access(at, r.Key&^PABit, config.BlockSize, kind)
			charge(o.p.Lat, lat.OffPkgQueue, lat.OffPkgService, res)
			return res.Done
		})
		return
	}
	// cTLB hit guarantees a cache hit: bare in-package block access.
	// Inlined issue(): this is the design's hottest L3 path.
	var at sim.Tick
	if r.Dep {
		at = r.CPU.Now()
	} else {
		at = r.CPU.ReserveMSHR()
	}
	o.ctrl.Touch(at, r.Key>>o.caShift, r.Write)
	res := o.p.InPkg.Access(at, r.Key, config.BlockSize, kind)
	charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
	done := res.Done
	if r.Dep {
		r.CPU.Block(done)
	} else {
		r.CPU.CompleteMSHR(done)
	}
	o.p.Observe(done-at, true)
}

// Writeback sinks the dirty victim: PA-tagged (non-cacheable) lines go
// off-package; CA-tagged lines land in the cache and mark its block dirty.
func (o *Tagless) Writeback(at sim.Tick, key uint64) {
	if key&PABit != 0 {
		res := o.p.OffPkg.Access(at, key&^PABit, config.BlockSize, dram.Write)
		o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
		return
	}
	res := o.p.InPkg.Access(at, key, config.BlockSize, dram.Write)
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
	o.ctrl.Touch(at, key>>o.caShift, true)
}

// FastAccess applies the state effect of a cTLB-hit access: recency and
// dirtiness on the touched block. Non-cacheable accesses have no
// cache-side state.
func (o *Tagless) FastAccess(r FastRequest) {
	if r.NC {
		return
	}
	o.ctrl.Touch(r.At, r.Key>>o.caShift, r.Write)
}

// FastWriteback marks the CA-tagged victim's block dirty; PA-tagged
// (non-cacheable) victims leave no cache-side state.
func (o *Tagless) FastWriteback(at sim.Tick, key uint64) {
	if key&PABit != 0 {
		return
	}
	o.ctrl.Touch(at, key>>o.caShift, true)
}

// Visit visits nothing: the controller's state (GIPT, free lists, alias
// table) is visited by the machine, which owns the page tables its PTE
// pointers resolve against.
func (o *Tagless) Visit(*flat.Codec) {}
