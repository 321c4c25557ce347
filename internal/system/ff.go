package system

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/org"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// This file is the functional fast-forward path. It is the accurate
// step's engine with the timing left out, not a second engine: every
// state transition is a call into the code step uses — the page
// classification, TLB-key and on-die key rules (classify, tlbLookup,
// onDieBase), the tagless controller's miss-handler steps
// (core.Controller.FastTLBMiss) and each organization's state functions
// (org.FastPath). The fast path differs only in:
//
//   - no timing: no kernel events, no DRAM accesses, no MSHR/stall
//     modeling, no latency attribution; each core's clock advances at
//     issue width;
//   - fills and evictions that complete at once, so no in-flight window
//     (and no PendingEvict rescue window) is ever observable;
//   - whole-visit batching: a generator standing at a visit boundary
//     yields a whole page visit (trace.NextVisit), whose E references
//     cost one TLB resolution and one cache access per distinct block;
//     any other position or source yields single-reference visits from
//     Next, which keeps fast-forward available (just slower) for
//     arbitrary sources and mid-visit entry points;
//   - an on-die presence filter standing in for the L1/L2 lookups (see
//     ffVisit);
//   - counter rollback: the organization restores its Stats at the
//     span's end, and so does the machine for its shared-TLB invalidation
//     count, while untimed context switches are not counted at all, so a
//     span warms state without perturbing measured-window statistics.
//
// The approximations these imply — compressed timescales in recency
// state, no rescue window, one LRU touch per block instead of one per
// reference — are absorbed by the sampling error bound the accuracy
// tests enforce.

// ffBegin quiesces the event kernel (fast-forward cannot represent
// in-flight work), starts a filter epoch and lets the organization
// snapshot the counters the span would otherwise pollute.
func (m *Machine) ffBegin() error {
	m.kernel.Run(0)
	if m.ctrl != nil && !m.ctrl.Quiesced() {
		return fmt.Errorf("system: controller not quiesced after kernel drain")
	}
	m.ffEpoch++ // expire every ffFilt entry from earlier spans
	for _, cc := range m.cores {
		if cc.ffFilt == nil {
			n := 1
			for n*2 <= cc.l2.Config().Sets()*cc.l2.Config().Ways {
				n *= 2
			}
			cc.ffFilt = make([]uint64, n)
			cc.ffMask = uint64(n - 1)
			for cc.ffLog = 0; n>>cc.ffLog != 1; cc.ffLog++ {
			}
		}
	}
	m.org.FastBegin()
	return nil
}

// fetchVisit fills v with the core's next page visit: whole visits from a
// generator at a visit boundary, synthesized single-reference visits
// otherwise (mid-visit entry after an accurate window, or a non-generator
// source).
func fetchVisit(cc *coreCtx, v *trace.Visit) {
	if cc.vgen != nil && cc.vgen.AtVisitBoundary() {
		cc.vgen.NextVisit(v)
		return
	}
	a := cc.gen.Next()
	v.Page = a.VAddr >> 12
	v.FirstBlock = int(a.VAddr>>6) & 63
	v.Blocks = 1
	v.Refs = 1
	v.Instr = uint64(a.Gap) + 1
	v.LowReuse = a.LowReuse
	v.Shared = a.Shared
	if a.Write {
		v.AnyWrite, v.FirstWrite = 1, 1
	} else {
		v.AnyWrite, v.FirstWrite = 0, 0
	}
}

// FastForwardRefs advances the machine by at least n trace references on
// the functional fast path, interleaving cores in simulated-time order
// (advance). Visits are atomic, so the span may overshoot n by up to one
// visit. The kernel is drained first; the counters the span touches are
// restored on return.
func (m *Machine) FastForwardRefs(n uint64) error {
	return m.fastForward(n, ^uint64(0))
}

// fastForward advances by at least n references, stopping early once
// every core has retired target instructions, and then restores the
// organization's and the shared TLB's counters.
func (m *Machine) fastForward(n, target uint64) error {
	if err := m.ffBegin(); err != nil {
		return err
	}
	defer m.org.FastEnd()
	if g := m.tlbShared; g != nil {
		defer func(saved uint64) { g.Invalidations = saved }(g.Invalidations)
	}
	return m.advance(n, target, true)
}

// ffVisit applies one page visit's state transitions: retirement, shared
// mapping, hot-filter and non-cacheable classification, one TLB
// resolution, and per-block on-die cache and organization updates.
func (m *Machine) ffVisit(cc *coreCtx, v *trace.Visit) error {
	cc.cpu.Retire(int(v.Instr))
	m.refs += v.Refs
	// Context-switch pacing: same per-core reference counting as step, so
	// the switch schedule is identical across paths (untimed here — state
	// effects only).
	if m.ctx != nil {
		for n := m.ctx.Due(cc.id, v.Refs); n > 0; n-- {
			m.contextSwitch(cc, false)
		}
	}
	now := cc.cpu.Now()
	vpn := v.Page
	if err := m.classify(cc, vpn, v.Refs, v.Shared, v.LowReuse); err != nil {
		return err
	}

	// Address translation: one cTLB resolution covers the whole visit
	// (repeats would hit the just-inserted entry on the accurate path).
	entry, lvl, tlbKey, super := m.tlbLookup(cc, vpn)
	if lvl == tlb.MissAll {
		var err error
		if m.ctrl != nil {
			entry, err = m.ctrl.FastTLBMiss(now, cc.id, cc.pt, vpn)
		} else {
			entry, err = cc.walkPhysical(vpn)
		}
		if err != nil {
			return fmt.Errorf("system: core %d vpn %d: %w", cc.id, vpn, err)
		}
		cc.refill(tlbKey, vpn, entry)
	}

	// Per-block on-die cache state: one access per distinct block. The
	// on-die hierarchy's filtering is load-bearing even on the fast path —
	// without it every visit block would reach the organization, keeping
	// hot DRAM-cache state artificially recent and biasing sampled IPC —
	// but full set-associative L1+L2 accesses cost more than the rest of
	// the fast path combined, so a direct-mapped presence filter of the
	// hierarchy's (L2) capacity stands in: filter hits cost one array
	// probe, the way on-die hits would cost no L3 traffic, and dirtiness
	// is applied to the L2 eagerly (the visit's any-write bit, the state
	// an L1 victim's eventual write-back would leave). Filter misses still
	// perform the real L2 access, so L2 contents keep warming with
	// exactly the fill traffic that would change them. The visit's blocks
	// share one page, so the key differs only in the block offset.
	keyBase := m.onDieBase(entry, vpn, super)
	// Memo slot layout: bit 63 is the span-local "dirtiness applied"
	// flag, bits 62..32 a 31-bit block tag, bits 31..0 the span epoch.
	const ffDirtyBit = uint64(1) << 63
	epoch := uint64(m.ffEpoch)
	filt, mask, flog := cc.ffFilt, cc.ffMask, cc.ffLog
	fwBits, awBits := v.FirstWrite, v.AnyWrite
	block := keyBase/config.BlockSize + uint64(v.FirstBlock)
	for j := 0; j < v.Blocks; j, block, fwBits, awBits = j+1, block+1, fwBits>>1, awBits>>1 {
		blockOff := uint64(v.FirstBlock+j) * config.BlockSize
		key := keyBase + blockOff
		fw := fwBits&1 == 1
		aw := awBits&1 == 1
		slot := &filt[block&mask]
		want := uint64(uint32(block>>flog)&0x7fffffff)<<32 | epoch
		if *slot&^ffDirtyBit == want {
			// Memoized this span: the block is on-die, so the L2 is not
			// touched, except that the block's first write must reach it
			// as dirtiness. Later writes are free — the line is dirty (or
			// its write-back issued) already, exactly one write-back per
			// dirty block per span, which is what the accurate path's
			// victim traffic converges to.
			if aw && *slot&ffDirtyBit == 0 {
				*slot |= ffDirtyBit
				if !cc.l2.MarkDirty(key) {
					m.org.FastWriteback(now, key)
				}
			}
			continue
		}
		if aw {
			// The real access below installs (or refreshes) the line
			// dirty, so the per-span dirtiness is already applied.
			*slot = want | ffDirtyBit
		} else {
			*slot = want
		}
		if hit, victim, hasVictim := cc.l2.Access(key, aw); hit {
			continue
		} else if hasVictim && victim.Dirty {
			m.org.FastWriteback(now, victim.Addr)
		}
		m.org.FastAccess(org.FastRequest{
			At: now, Key: key, Frame: entry.Frame, Offset: blockOff,
			NC: entry.NC, Write: fw,
		})
	}
	return nil
}
