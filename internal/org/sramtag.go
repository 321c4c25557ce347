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
	Register(config.SRAMTag, func(p Ports) (Organization, error) {
		tag := config.TagParamsFor(p.Cfg.CacheSize)
		o := &SRAMTag{p: p}
		o.cache = dramcache.NewPageCache(p.Cfg.CachePages(), p.Cfg.SRAMTag.Ways, tag.LatencyCyc, &o.st.Tag)
		return o, nil
	})
}

// SRAMTag is the page-based cache with an on-die SRAM tag array: a tag
// check on every access, in-package block on a hit, serializing page fill
// on a miss (Section 2.2).
type SRAMTag struct {
	stats
	p     Ports
	cache *dramcache.PageCache
}

// Access performs the tag check and the hit block access or miss fill.
func (o *SRAMTag) Access(r Request) {
	kind := kindOf(r.Write)
	tagCycles := sim.Tick(o.cache.TagLatency())
	if slot, hit := o.cache.Lookup(r.Frame, r.Write); hit {
		issue(r.CPU, o.p.Observe, r.Dep, true, func(at sim.Tick) sim.Tick {
			res := o.p.InPkg.Access(at+tagCycles, slot*config.PageSize+r.Offset, config.BlockSize, kind)
			o.p.Lat.Add(lat.VictimProbe, tagCycles)
			charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
			return res.Done
		})
		return
	}
	// Miss: fetch the page from off-package DRAM, critical block first —
	// the requester resumes when its block arrives (Equation 3's
	// MissRate_L3 × PageAccessTime term) and the rest of the page
	// streams in behind, consuming bandwidth.
	at := r.CPU.Now()
	slot, victim, hasVictim := o.cache.Fill(r.Frame, r.Write)
	fillStart := at + tagCycles
	if hasVictim && victim.Dirty {
		// Victim write-back happens in the background.
		rv := o.p.InPkg.Access(fillStart, victim.Slot*config.PageSize, config.PageSize, dram.Read)
		wv := o.p.OffPkg.Access(rv.Done, victim.PPN*config.PageSize, config.PageSize, dram.Write)
		o.p.Lat.AddBackground(lat.Writeback, wv.Done-fillStart)
	}
	base := r.Frame * config.PageSize
	blockOff := r.Offset &^ (config.BlockSize - 1)
	crit := o.p.OffPkg.Access(fillStart, base+blockOff, config.BlockSize, dram.Read)
	// Stall attribution: tag probe + the critical block's queue/service
	// span the full crit.Done-at window. The rest-of-page stream and the
	// in-package fill write below are bandwidth, not stall, and stay
	// unattributed.
	o.p.Lat.Add(lat.VictimProbe, tagCycles)
	charge(o.p.Lat, lat.OffPkgQueue, lat.OffPkgService, crit)
	o.p.OffPkg.Access(crit.Done, base, config.PageSize-config.BlockSize, dram.Read)
	o.p.InPkg.Access(crit.Done, slot*config.PageSize, config.PageSize, dram.Write)
	r.CPU.Block(crit.Done)
	o.p.Observe(crit.Done-at, false)
}

// Writeback sinks the dirty victim into its cached page frame, or
// off-package when the page is absent.
func (o *SRAMTag) Writeback(at sim.Tick, key uint64) {
	ppn := key / config.PageSize
	var res dram.Result
	if slot, ok := o.cache.Peek(ppn); ok {
		o.cache.MarkDirty(ppn)
		res = o.p.InPkg.Access(at, slot*config.PageSize+key%config.PageSize, config.BlockSize, dram.Write)
	} else {
		res = o.p.OffPkg.Access(at, key, config.BlockSize, dram.Write)
	}
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}

// FastAccess applies the tag-array state transitions of Access — LRU
// refresh and dirtiness on a hit, victim selection and allocation on a
// miss — with no device traffic.
func (o *SRAMTag) FastAccess(r FastRequest) {
	if _, hit := o.cache.Lookup(r.Frame, r.Write); hit {
		return
	}
	o.cache.Fill(r.Frame, r.Write)
}

// FastWriteback marks the victim's page dirty when resident (Writeback's
// state effect; the device traffic is skipped).
func (o *SRAMTag) FastWriteback(_ sim.Tick, key uint64) {
	o.cache.MarkDirty(key / config.PageSize)
}

// Visit hands c the page cache (frames, LRU clock).
func (o *SRAMTag) Visit(c *flat.Codec) { o.cache.Visit(c) }
