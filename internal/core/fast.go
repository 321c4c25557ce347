package core

import (
	"fmt"

	"taglessdram/internal/mmu"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
)

// Quiesced reports whether the controller has no in-flight work: no
// pending fills, no eviction daemon queue, no evictions underway. Running
// the kernel dry (kernel.Run(0)) establishes this. Fast-forward and
// checkpointing both require it — neither can represent in-flight state.
func (c *Controller) Quiesced() bool {
	return len(c.pendings) == 0 && c.inFlight == 0 && c.freeQ.Len() == 0
}

// FastTLBMiss is the functional cTLB miss handler the fast-forward path
// uses: HandleTLBMiss's state steps (walk, victim hit, alias attach,
// allocate with inline eviction, install, replenish) with no timing, no
// kernel events and no device traffic. Fills and evictions complete at
// once, so the PU bit and the Filling/PendingEvict windows never become
// observable — the documented approximation of the fast path. `at`
// stamps LRU recency (the caller's core clock). The controller must be
// quiesced.
func (c *Controller) FastTLBMiss(at sim.Tick, coreID int, pt *mmu.PageTable, vpn uint64) (tlb.Entry, error) {
	pte, err := c.resolve(pt, vpn)
	if err != nil {
		return tlb.Entry{}, err
	}
	switch {
	case pte.NC:
		return c.nonCacheable(pte), nil
	case pte.PU:
		return tlb.Entry{}, fmt.Errorf("core: PU bit set during fast-forward (controller not quiesced)")
	case pte.VC:
		return c.victimHit(pte.Frame, coreID), nil
	}
	// No fill is in flight, so the attach never takes its Filling arm.
	if ca, _, ok := c.attachAlias(pte, coreID, at); ok {
		return tlb.Entry{Frame: ca}, nil
	}
	ca, ok := c.popFree()
	if !ok {
		v, err := c.inlineVictim()
		if err != nil {
			return tlb.Entry{}, err
		}
		ca = c.evictInline(at, v)
	}
	// The fill lands at once: the fill event's body runs inline.
	c.install(at, at, ca, pte, vpn, coreID)
	c.completeFill(ca, pte)
	if !c.cfg.SynchronousEviction {
		c.fastReplenish(at)
	}
	return tlb.Entry{Frame: ca}, nil
}

// fastReplenish is the eviction daemon collapsed to its fixed point: top
// the free pool up to α with immediate evictions. On the quiesced fast
// path FreeBlocks alone is the pool (no daemon queue, nothing in flight).
func (c *Controller) fastReplenish(at sim.Tick) {
	for c.FreeBlocks() < c.cfg.Alpha {
		ca, ok := c.selectVictim()
		if !ok {
			return
		}
		c.evict(at, ca)
	}
}
