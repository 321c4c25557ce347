package org

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

// Banshee model parameters, fixed at the reference design's values
// (Yu et al., "Banshee: Bandwidth-Efficient DRAM Caching via
// Software/Hardware Cooperation", see PAPERS.md). The design is
// self-contained: adding it touched no other organization and no config
// knob beyond the L3Design enum value.
const (
	// bansheeWays is the page cache's set associativity.
	bansheeWays = 8
	// bansheeFillThreshold is the bandwidth-efficient fill filter: a page
	// is cached only after this many misses (and only when its frequency
	// counter has caught up with the victim's), so streaming pages do not
	// thrash the cache.
	bansheeFillThreshold = 2
	// bansheeTagBufEntries sizes the tag buffer that absorbs remappings
	// before they are flushed to the in-memory page-table metadata.
	bansheeTagBufEntries = 64
	// bansheeTagEntryBytes is the per-remapping metadata written back on
	// a tag-buffer flush (one PTE-sized update per remapped page).
	bansheeTagEntryBytes = 8
)

func init() {
	Register(config.Banshee, func(p Ports) (Organization, error) {
		pages := p.Cfg.CachePages()
		if pages%bansheeWays != 0 {
			return nil, fmt.Errorf("org: banshee needs cache pages (%d) divisible by %d ways", pages, bansheeWays)
		}
		return &Banshee{
			p:    p,
			sets: make([]bansheeSlot, pages),
			freq: make(map[uint64]uint32),
		}, nil
	})
}

type bansheeSlot struct {
	ppn   uint64
	valid bool
	dirty bool
	count uint32 // frequency counter (FBR metadata)
}

// Banshee is a Banshee-style page-granularity DRAM cache: page mappings
// travel with the translation (like the tagless design, a hit needs no
// tag probe), replacement is frequency-based, and a page is filled only
// after bansheeFillThreshold misses whose counter beats the victim's —
// trading hit rate for fill bandwidth. Remappings are buffered in a small
// tag buffer and flushed to memory-resident metadata when it fills.
type Banshee struct {
	stats
	p          Ports
	sets       []bansheeSlot // pages slots, bansheeWays per set
	freq       map[uint64]uint32
	tagBufUsed int
}

// set returns ppn's set index and slot range.
func (o *Banshee) set(ppn uint64) (uint64, []bansheeSlot) {
	si := ppn % uint64(len(o.sets)/bansheeWays)
	return si, o.sets[si*bansheeWays : (si+1)*bansheeWays]
}

// slotIndex converts (set, way) to the flat cache-frame index, which is
// the page's address within the in-package device.
func slotIndex(si uint64, way int) uint64 {
	return si*bansheeWays + uint64(way)
}

// lookupWay finds ppn's way within its set, or -1.
func lookupWay(set []bansheeSlot, ppn uint64) int {
	for w := range set {
		if set[w].valid && set[w].ppn == ppn {
			return w
		}
	}
	return -1
}

// victimWay picks the fill victim: the first invalid way, else the
// minimum-frequency way (lowest way index on ties), per FBR.
func victimWay(set []bansheeSlot) int {
	vi := 0
	for w := range set {
		if !set[w].valid {
			return w
		}
		if set[w].count < set[vi].count {
			vi = w
		}
	}
	return vi
}

// bansheeOutcome is what one lookup did to the page cache.
type bansheeOutcome uint8

const (
	bansheeHit    bansheeOutcome = iota // resident: served in-package
	bansheeFill                         // filled into a victim's frame
	bansheeBypass                       // served off-package, victim aged
)

// lookup applies one access's FBR state transition: a hit bumps the
// page's frequency counter; a miss counts toward the fill threshold and
// either fills over the victim way — taking a tag-buffer entry for the
// remapping — or bypasses and ages the victim so a persistently hot
// candidate eventually wins. It returns the outcome, the page's frame
// slot (hit or fill), the displaced victim and whether the fill flushed
// the tag buffer.
func (o *Banshee) lookup(ppn uint64, write bool) (out bansheeOutcome, slot uint64, victim bansheeSlot, flush bool) {
	si, set := o.set(ppn)
	if w := lookupWay(set, ppn); w >= 0 {
		s := &set[w]
		if s.count != ^uint32(0) {
			s.count++
		}
		if write {
			s.dirty = true
		}
		return bansheeHit, slotIndex(si, w), bansheeSlot{}, false
	}
	n := o.freq[ppn] + 1
	o.freq[ppn] = n
	w := victimWay(set)
	v := &set[w]
	if n < bansheeFillThreshold || (v.valid && n < v.count) {
		if v.valid && v.count > 0 {
			v.count--
		}
		return bansheeBypass, 0, bansheeSlot{}, false
	}
	victim = *v
	delete(o.freq, ppn)
	*v = bansheeSlot{ppn: ppn, valid: true, dirty: write, count: n}
	// The remapping occupies a tag-buffer entry; a full buffer flushes
	// its mappings to the memory-resident metadata.
	o.tagBufUsed++
	if o.tagBufUsed == bansheeTagBufEntries {
		o.tagBufUsed = 0
		flush = true
	}
	return bansheeFill, slotIndex(si, w), victim, flush
}

// Access serves the miss: resident pages are bare in-package block
// accesses (the mapping came with the translation — no tag latency);
// non-resident pages either fill (frequency caught up with the victim)
// or bypass straight to off-package DRAM.
func (o *Banshee) Access(r Request) {
	kind := kindOf(r.Write)
	out, slot, victim, flush := o.lookup(r.Frame, r.Write)
	switch out {
	case bansheeHit:
		issue(r.CPU, o.p.Observe, r.Dep, true, func(at sim.Tick) sim.Tick {
			res := o.p.InPkg.Access(at, slot*config.PageSize+r.Offset, config.BlockSize, kind)
			charge(o.p.Lat, lat.InPkgQueue, lat.InPkgService, res)
			return res.Done
		})
	case bansheeFill:
		// No tag probe delays the fill: the mapping came with the
		// translation.
		fillPage(&o.p, r, 0, slot, victim.ppn, victim.valid && victim.dirty)
		if flush {
			o.p.OffPkg.AccountTraffic(bansheeTagBufEntries*bansheeTagEntryBytes, dram.Write)
		}
	case bansheeBypass:
		issue(r.CPU, o.p.Observe, r.Dep, false, func(at sim.Tick) sim.Tick {
			res := o.p.OffPkg.Access(at, r.Key, config.BlockSize, kind)
			charge(o.p.Lat, lat.OffPkgQueue, lat.OffPkgService, res)
			return res.Done
		})
	}
}

// markDirty marks ppn's page dirty when resident and returns its frame
// slot.
func (o *Banshee) markDirty(ppn uint64) (uint64, bool) {
	si, set := o.set(ppn)
	if w := lookupWay(set, ppn); w >= 0 {
		set[w].dirty = true
		return slotIndex(si, w), true
	}
	return 0, false
}

// Writeback sinks the dirty victim into its cached page frame, or
// off-package when the page is absent.
func (o *Banshee) Writeback(at sim.Tick, key uint64) {
	var res dram.Result
	if slot, ok := o.markDirty(key / config.PageSize); ok {
		res = o.p.InPkg.Access(at, slot*config.PageSize+key%config.PageSize, config.BlockSize, dram.Write)
	} else {
		res = o.p.OffPkg.Access(at, key, config.BlockSize, dram.Write)
	}
	o.p.Lat.AddBackground(lat.Writeback, res.Done-at)
}

// FastAccess applies Access's FBR state transition with no device
// traffic (a tag-buffer flush updates occupancy but books no metadata
// write).
func (o *Banshee) FastAccess(r FastRequest) { o.lookup(r.Frame, r.Write) }

// FastWriteback marks the victim's page dirty when resident.
func (o *Banshee) FastWriteback(_ sim.Tick, key uint64) { o.markDirty(key / config.PageSize) }

// Visit hands c the design's checkpoint state: every slot's page, valid
// and dirty bits and frequency counter, the candidates' frequency
// counters and the tag-buffer occupancy. The slot count is a construction
// input and must match; a decoded occupancy must leave room in the tag
// buffer.
func (o *Banshee) Visit(c *flat.Codec) {
	c.Fixed(len(o.sets), "Banshee slots")
	for i := range o.sets {
		s := &o.sets[i]
		c.U64(&s.ppn)
		c.Bool(&s.valid)
		c.Bool(&s.dirty)
		c.U32(&s.count)
	}
	flat.Map(c, &o.freq, (*flat.Codec).U32)
	c.Int(&o.tagBufUsed)
	if o.tagBufUsed < 0 || o.tagBufUsed >= bansheeTagBufEntries {
		c.Fail(fmt.Errorf("org: Banshee tag buffer holds %d of %d entries", o.tagBufUsed, bansheeTagBufEntries))
	}
}
