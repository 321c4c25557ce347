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

func init() {
	Register(config.SRAMTag, func(p Ports) (Organization, error) {
		frames, err := NewPageFrames(p.Cfg.CacheSize, p.Cfg.SRAMTag.Ways)
		if err != nil {
			return nil, err
		}
		return &SRAMTag{p: p, tagCycles: sim.Tick(config.TagParamsFor(p.Cfg.CacheSize).LatencyCyc), frames: frames}, nil
	})
}

// NewPageFrames builds the SRAM-tag design's array for a cache of
// cacheSize bytes: ways-way LRU sets of page-sized lines keyed by page
// address, line i being page frame i of the in-package device.
func NewPageFrames(cacheSize int64, ways int) (*cache.Cache, error) {
	pages := cacheSize / config.PageSize
	if pages <= 0 || ways <= 0 || pages%int64(ways) != 0 {
		return nil, fmt.Errorf("org: SRAM tag array needs cache pages (%d) divisible by %d ways", pages, ways)
	}
	return cache.New(config.CacheConfig{SizeBytes: cacheSize, Ways: ways, LineBytes: config.PageSize}), nil
}

// TagStats counts the SRAM tag array's activity.
type TagStats struct {
	Lookups   uint64
	Hits      uint64
	MissFills uint64
	Evictions uint64
}

// HitRate returns hits/lookups, or 0 before any lookup.
func (s *TagStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// EnergyPJ returns the tag-array energy the counts stand for: every
// lookup reads all ways of one set; fills rewrite one entry. The
// per-access energy model follows the CACTI-style scaling the paper's
// energy numbers build on.
func (s *TagStats) EnergyPJ() float64 {
	const readPJ = 18.0 // one N-way tag-set read (4MB SRAM array)
	const writePJ = 6.0 // one tag entry update
	return float64(s.Lookups)*readPJ + float64(s.MissFills+s.Evictions)*writePJ
}

// SRAMTag is the page-based cache with an on-die SRAM tag array: an
// N-way set-associative array of page frames with LRU replacement, whose
// tag check costs tagCycles on every access, hit or miss; in-package
// block on a hit, serializing page fill on a miss (Section 2.2). A page's
// frame is its line in the array, which is its page address within the
// in-package device.
type SRAMTag struct {
	stats
	p         Ports
	tagCycles sim.Tick     // the Table 6 tag latency for the capacity
	frames    *cache.Cache // page-sized lines keyed by Frame*PageSize
}

// Access performs the tag check and the hit block access or miss fill.
func (o *SRAMTag) Access(r Request) {
	o.st.Tag.Lookups++
	hit, victim, hasVictim := o.frames.Access(r.Frame*config.PageSize, r.Write)
	slot := o.frames.Line()
	if hit {
		o.st.Tag.Hits++
		kind := kindOf(r.Write)
		issue(r.CPU, o.p.Observe, r.Dep, true, func(at sim.Tick) sim.Tick {
			res := o.p.InPkg.Access(at+o.tagCycles, slot*config.PageSize+r.Offset, config.BlockSize, kind)
			o.p.Lat.Add(lat.VictimProbe, o.tagCycles)
			charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
			return res.Done
		})
		return
	}
	o.st.Tag.MissFills++
	if hasVictim {
		o.st.Tag.Evictions++
	}
	// Miss: the page fill starts behind the tag probe, which stays on the
	// requester's critical path.
	o.p.Lat.Add(lat.VictimProbe, o.tagCycles)
	fillPage(&o.p, r, o.tagCycles, slot, victim.Addr/config.PageSize, victim.Dirty)
}

// Writeback sinks the dirty victim into its cached page frame, or
// off-package when the page is absent.
func (o *SRAMTag) Writeback(at sim.Tick, key uint64) {
	var res dram.Result
	if slot, ok := o.frames.Lookup(key); ok {
		o.frames.MarkDirty(key)
		res = o.p.InPkg.Access(at, slot*config.PageSize+key%config.PageSize, config.BlockSize, dram.Write)
	} else {
		res = o.p.OffPkg.Access(at, key, config.BlockSize, dram.Write)
	}
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}

// FastAccess applies the tag-array state transitions of Access — LRU
// refresh and dirtiness on a hit, victim selection and allocation on a
// miss — with no device traffic.
func (o *SRAMTag) FastAccess(r FastRequest) { o.frames.Access(r.Frame*config.PageSize, r.Write) }

// FastWriteback marks the victim's page dirty when resident (Writeback's
// state effect; the device traffic is skipped).
func (o *SRAMTag) FastWriteback(_ sim.Tick, key uint64) { o.frames.MarkDirty(key) }

// Visit hands c the page frames (tags, LRU stamps and dirty bits).
func (o *SRAMTag) Visit(c *flat.Codec) { o.frames.Visit(c) }
