package core

import (
	"fmt"

	"taglessdram/internal/flat"
	"taglessdram/internal/mmu"
)

// Visit hands the counters to c in declaration order.
func (s *Stats) Visit(c *flat.Codec) {
	for _, v := range []*uint64{
		&s.Walks, &s.NonCacheable, &s.VictimHits, &s.ColdFills, &s.PendingWaits, &s.AliasHits,
		&s.Rescues, &s.Evictions, &s.Writebacks, &s.SyncEvictions, &s.Shootdowns,
	} {
		c.U64(v)
	}
}

// Visit hands the controller's checkpoint state to c: the GIPT, the free
// list from its header pointer on, the allocation queue, recency and
// CLOCK bits, the LRU cursor and the alias table. PTE
// pointers cross through pte, which the system layer supplies because it
// owns the page tables they point into.
//
// Only a quiesced controller has a state image: pending fills, queued
// and in-flight evictions have none, so both sides refuse them, and
// every block is free or cached. A decoded cache address must name one
// of the controller's blocks, the free list must hold every free block
// once, and a cached block must have a PTE; anything else fails c.
func (c *Controller) Visit(fc *flat.Codec, pte func(*flat.Codec, **mmu.PTE)) {
	if !c.Quiesced() {
		fc.Fail(fmt.Errorf("core: controller not quiesced: %d pending fills, %d in-flight evictions, %d queued",
			len(c.pendings), c.inFlight, c.freeQ.Len()))
		return
	}
	blocks := len(c.gipt.entries)
	fc.Fixed(blocks, "GIPT blocks")
	ca := func(v *uint64) {
		fc.U64(v)
		if *v >= uint64(blocks) {
			fc.Fail(fmt.Errorf("core: cache address %d beyond the %d blocks", *v, blocks))
		}
	}
	free := 0
	for i := range c.gipt.entries {
		e := &c.gipt.entries[i]
		fc.Byte((*byte)(&e.State))
		switch e.State {
		case Free:
			free++
		case Cached:
			pte(fc, &e.PTE)
		default:
			fc.Fail(fmt.Errorf("core: CA-%d is %v", i, e.State))
		}
		fc.U64(&e.PPN)
		fc.U64(&e.VPN)
		fc.U64(&e.Residence)
		fc.Bool(&e.Dirty)
		fc.U64((*uint64)(&e.FillDone))
		flat.Resize(&e.Sharers, fc.Count(len(e.Sharers), 2))
		for j := range e.Sharers {
			pte(fc, &e.Sharers[j])
		}
	}

	// The free list from the header pointer on, which a decoder takes as
	// its whole list: one entry per free block.
	list := c.freeList[c.freeHead:]
	n := fc.Count(len(list), 1)
	if n != free {
		fc.Fail(fmt.Errorf("core: %d blocks are free but the free list holds %d", free, n))
		n = 0
	}
	flat.Resize(&list, n)
	var seen []bool
	if fc.Decoding() {
		seen = make([]bool, blocks)
	}
	for i := range list {
		ca(&list[i])
		if b := list[i]; fc.Decoding() && fc.Err() == nil {
			if seen[b] || c.gipt.entries[b].State != Free {
				fc.Fail(fmt.Errorf("core: the free list holds CA-%d twice, or while it is %v", b, c.gipt.entries[b].State))
			}
			seen[b] = true
		}
	}
	q := c.allocQ.q[c.allocQ.head:]
	flat.Resize(&q, fc.Count(len(q), 1))
	for i := range q {
		ca(&q[i])
	}
	if fc.Decoding() {
		c.freeList, c.freeHead = list, 0
		c.allocQ = FreeQueue{q: q}
	}
	for i := range c.lastTouch {
		fc.U64((*uint64)(&c.lastTouch[i]))
		fc.Bool(&c.refBit[i])
	}
	ca(&c.cursor)
	if c.aliases != nil {
		flat.Map(fc, &c.aliases, func(fc *flat.Codec, v *uint64) { ca(v) })
	}
}
