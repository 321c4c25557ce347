package org

import (
	"fmt"

	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

// TADBytes is the size of one tag-and-data unit in the block-based cache:
// a 64-byte line plus an 8-byte tag, streamed out of DRAM in one burst as
// in Alloy Cache (Qureshi & Loh, MICRO'12), which the paper uses as its
// block-based reference point (Table 2, Section 7).
const TADBytes = 72

func init() {
	Register(config.AlloyBlock, func(p Ports) (Organization, error) {
		tads, err := NewTADArray(p.Cfg.CacheSize)
		if err != nil {
			return nil, err
		}
		return &Alloy{p: p, tads: tads}, nil
	})
}

// NewTADArray builds Alloy's array for a cache of cacheSize bytes: one
// way of cacheSize/TADBytes 64-byte lines, so a block's line is its block
// number modulo the line count and line i's TAD is at i*TADBytes.
func NewTADArray(cacheSize int64) (*cache.Cache, error) {
	lines := cacheSize / TADBytes
	if lines <= 0 {
		return nil, fmt.Errorf("org: an Alloy cache of %d bytes holds no %d-byte TAD", cacheSize, TADBytes)
	}
	return cache.New(config.CacheConfig{SizeBytes: lines * config.BlockSize, Ways: 1, LineBytes: config.BlockSize}), nil
}

// Alloy is the block-based cache class of Table 2: a direct-mapped cache
// of 64-byte lines whose tags live in the in-package DRAM alongside the
// data, so one in-package TAD read serves tag check and data together.
// Tag storage consumes 8/72 of the cache capacity — the scalability
// problem that motivates the tagless design. A miss adds a serial
// off-package block fetch (the Alloy SERIAL organization, no hit
// predictor) and a background TAD fill plus any dirty-victim write-back.
type Alloy struct {
	stats
	p    Ports
	tads *cache.Cache // one way of CacheSize/TADBytes lines; line i's TAD is at i*TADBytes
}

// Access performs the TAD probe and the hit read or miss fill.
func (o *Alloy) Access(r Request) {
	kind := kindOf(r.Write)
	hit, victim, hasVictim := o.tads.Access(r.Key, r.Write)
	tad := o.tads.Line() * TADBytes
	if hit {
		issue(r.CPU, o.p.Observe, r.Dep, true, func(at sim.Tick) sim.Tick {
			res := o.p.InPkg.Access(at, tad, TADBytes, kind)
			charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
			return res.Done
		})
		return
	}
	issue(r.CPU, o.p.Observe, r.Dep, false, func(at sim.Tick) sim.Tick {
		res := o.p.InPkg.Access(at, tad, TADBytes, dram.Read) // tag probe
		off := o.p.OffPkg.Access(res.Done, r.Key, config.BlockSize, dram.Read)
		// Stall attribution: TAD probe (incl. its queueing) plus the
		// off-package fetch's queue/service span the full off.Done-at
		// window.
		o.p.Lat.Add(lat.VictimProbe, res.Done-at)
		charge(o.p.Lat, lat.OffPkgQueue, lat.OffPkgService, off)
		// Fill and write-back stream in the background.
		o.p.InPkg.Access(off.Done, tad, TADBytes, dram.Write)
		if hasVictim && victim.Dirty {
			wb := o.p.OffPkg.Access(off.Done, victim.Addr, config.BlockSize, dram.Write)
			o.p.Lat.AddBackground(lat.Writeback, wb.Done-off.Done)
		}
		return off.Done
	})
}

// Writeback sinks the dirty victim into its TAD slot when resident,
// off-package otherwise.
func (o *Alloy) Writeback(at sim.Tick, key uint64) {
	var res dram.Result
	if line, ok := o.tads.Lookup(key); ok {
		o.tads.MarkDirty(key)
		res = o.p.InPkg.Access(at, line*TADBytes, config.BlockSize, dram.Write)
	} else {
		res = o.p.OffPkg.Access(at, key, config.BlockSize, dram.Write)
	}
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}

// FastAccess applies the direct-mapped state transitions of Access —
// dirtiness on a hit, displacement and fill on a miss — with no device
// traffic.
func (o *Alloy) FastAccess(r FastRequest) { o.tads.Access(r.Key, r.Write) }

// FastWriteback marks the victim's line dirty when resident.
func (o *Alloy) FastWriteback(_ sim.Tick, key uint64) { o.tads.MarkDirty(key) }

// Visit hands c the TAD array (tags and dirty bits).
func (o *Alloy) Visit(c *flat.Codec) { o.tads.Visit(c) }
