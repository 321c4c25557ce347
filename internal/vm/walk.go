package vm

import (
	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/mmu"
	"taglessdram/internal/sim"
)

func init() {
	RegisterWalk("fixed", newFixedWalk)
	RegisterWalk("pwc", newPWCWalk)
	RegisterWalk("nested", newNestedWalk)
}

// fixedWalk is the paper's constant MissPenalty_TLB: every walk costs
// PageWalkCycles, attributed wholly to pt_walk.
type fixedWalk struct{ p Ports }

func newFixedWalk(p Ports) (WalkModel, error) { return &fixedWalk{p: p}, nil }

func (w *fixedWalk) Name() string { return "fixed" }

func (w *fixedWalk) Walk(at sim.Tick, coreID int, vpn uint64) sim.Tick {
	done := at + sim.Tick(w.p.Cfg.PageWalkCycles)
	w.p.Rec.Add(lat.PTWalk, done-at)
	return done
}

// Visit implements WalkModel: the fixed walk has no state.
func (w *fixedWalk) Visit(*flat.Codec) {}

// newWalkCache builds one core's MMU page-walk cache: a small SRAM
// holding recently used leaf PTE lines, hit in PWCHitCycles.
func newWalkCache(cfg *config.SystemConfig) *cache.Cache {
	return cache.New(config.CacheConfig{
		SizeBytes:    4 * config.KB,
		Ways:         8,
		LineBytes:    config.BlockSize,
		LatencyCycle: cfg.PWCHitCycles,
	})
}

// visitCaches hands c the per-core walk caches; the core count must
// match.
func visitCaches(c *flat.Codec, cs []*cache.Cache) {
	c.Fixed(len(cs), "walk caches")
	for _, wc := range cs {
		wc.Visit(c)
	}
}

// pwcWalk models the walk as memory traffic: the three upper levels hit
// the MMU's page-walk caches (PWCHitCycles each), and the leaf PTE
// access probes a per-core PTE cache before going to off-package DRAM.
// The per-level cost is configurable (PWCHitCycles).
type pwcWalk struct {
	p      Ports
	caches []*cache.Cache
}

func newPWCWalk(p Ports) (WalkModel, error) {
	w := &pwcWalk{p: p, caches: make([]*cache.Cache, p.Cfg.CPU.Cores)}
	for i := range w.caches {
		w.caches[i] = newWalkCache(p.Cfg)
	}
	return w, nil
}

func (w *pwcWalk) Name() string { return "pwc" }

func (w *pwcWalk) Walk(at sim.Tick, coreID int, vpn uint64) sim.Tick {
	// Upper levels (all but the leaf) are PWC hits.
	done := at + sim.Tick((mmu.WalkLevels-1)*w.p.Cfg.PWCHitCycles)
	pc := w.caches[coreID]
	pteAddr := w.p.PTBase + w.p.PTSize/2 + (vpn*8)%(w.p.PTSize/2)
	if hit, _, _ := pc.Access(pteAddr, false); hit {
		done += sim.Tick(pc.Latency())
		w.p.Rec.Add(lat.PTWalk, done-at)
		return done
	}
	r := w.p.OffPkg.Access(done, pteAddr&^uint64(config.BlockSize-1), config.BlockSize, dram.Read)
	w.p.Rec.Add(lat.PTWalk, r.Done-at)
	return r.Done
}

func (w *pwcWalk) Visit(c *flat.Codec) { visitCaches(c, w.caches) }

// Salts separating the reference streams of the nested walk's table
// dimensions, so a guest-table line and a host-table line never collide
// in the walk cache or the page-table region.
const (
	guestDim = 0x9E3779B97F4A7C15
	hostDim  = 0xC2B2AE3D27D4EB4F
	finalDim = 0x165667B19E3779F9
)

// mix64 is the splitmix64 finalizer: a deterministic 64-bit mixer used
// to scatter table keys across the page-table region.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// nestedWalk models hardware-assisted virtualization's two-dimensional
// walk: reading each of the four guest levels first requires translating
// that table's guest-physical address through the four-level host table,
// and the final guest-physical frame needs one more host walk — up to
// 4×(4+1) + 4 = 24 memory references per miss. Every reference probes
// the core's walk cache first; upper-level tables are shared by many
// walks (their keys are short vpn prefixes), so locality keeps the
// common cost far below the cold-miss worst case.
type nestedWalk struct {
	p      Ports
	caches []*cache.Cache
}

func newNestedWalk(p Ports) (WalkModel, error) {
	w := &nestedWalk{p: p, caches: make([]*cache.Cache, p.Cfg.CPU.Cores)}
	for i := range w.caches {
		w.caches[i] = newWalkCache(p.Cfg)
	}
	return w, nil
}

func (w *nestedWalk) Name() string { return "nested" }

// ref issues one table reference: walk-cache probe, then off-package
// DRAM on a miss. The reference's full duration is attributed to comp,
// so a serial chain of refs conserves exactly.
func (w *nestedWalk) ref(coreID int, at sim.Tick, dim uint64, level int, key uint64, comp lat.Component) sim.Tick {
	slots := w.p.PTSize / 8
	if slots == 0 {
		slots = 1
	}
	addr := w.p.PTBase + mix64(mix64(key)+dim+uint64(level))%slots*8
	pc := w.caches[coreID]
	var done sim.Tick
	if hit, _, _ := pc.Access(addr, false); hit {
		done = at + sim.Tick(pc.Latency())
	} else {
		r := w.p.OffPkg.Access(at, addr&^uint64(config.BlockSize-1), config.BlockSize, dram.Read)
		done = r.Done
		if done < at {
			done = at
		}
	}
	w.p.Rec.Add(comp, done-at)
	return done
}

func (w *nestedWalk) Walk(at sim.Tick, coreID int, vpn uint64) sim.Tick {
	t := at
	for g := 0; g < mmu.WalkLevels; g++ {
		// The guest table page visited at this level, identified by the
		// vpn's index prefix; its guest-physical address must itself be
		// translated by a host walk before the guest PTE can be read.
		gtable := mmu.LevelPrefix(vpn, g)
		for h := 0; h < mmu.WalkLevels; h++ {
			t = w.ref(coreID, t, hostDim, h, mmu.LevelPrefix(gtable, h), lat.PTWalkHost)
		}
		t = w.ref(coreID, t, guestDim, g, gtable, lat.PTWalkGuest)
	}
	// Host walk of the final guest-physical frame.
	for h := 0; h < mmu.WalkLevels; h++ {
		t = w.ref(coreID, t, finalDim, h, mmu.LevelPrefix(vpn, h), lat.PTWalkHost)
	}
	return t
}

func (w *nestedWalk) Visit(c *flat.Codec) { visitCaches(c, w.caches) }
