package vm

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/flat"
	"taglessdram/internal/tlb"
)

// Context-switch cost model constants.
const (
	// ShootdownCyclesPerEntry is the per-entry cost of a context-switch
	// TLB flush, charged as background tlb_shootdown cycles and as a
	// core stall over the quiesced switch.
	ShootdownCyclesPerEntry = 2
	// ForeignInjectEntries is how many foreign-tenant TLB entries each
	// context switch injects under the ASID-retain policy, modeling the
	// capacity the other tenants consumed while scheduled.
	ForeignInjectEntries = 64
	// foreignVPNMask bounds the synthetic foreign vpn stream; the
	// ForeignBit keeps it disjoint from every workload key regardless.
	foreignVPNMask = (uint64(1) << 24) - 1
)

// CtxSched paces per-core context switches by reference count and
// generates the deterministic foreign-tenant key stream the ASID-retain
// policy injects.
type CtxSched struct {
	Interval uint64
	Flush    bool
	Count    []uint64
	RNG      []uint64
}

// NewCtxSched builds the pacer, or returns nil when context switching is
// disabled (CtxSwitchRefs == 0).
func NewCtxSched(cfg *config.SystemConfig) *CtxSched {
	if cfg.CtxSwitchRefs == 0 {
		return nil
	}
	n := cfg.CPU.Cores
	s := &CtxSched{
		Interval: cfg.CtxSwitchRefs,
		Flush:    cfg.CtxSwitchFlush,
		Count:    make([]uint64, n),
		RNG:      make([]uint64, n),
	}
	for i := range s.RNG {
		// Distinct deterministic streams per core.
		s.RNG[i] = guestDim * uint64(i+1)
	}
	return s
}

// Due advances core's reference count by n and reports how many context
// switches fall due. Both the cycle-accurate step (n = 1) and the
// fast-forward visit (n = batch size) use it, so the switch schedule is
// identical across paths.
func (s *CtxSched) Due(core int, n uint64) int {
	s.Count[core] += n
	due := int(s.Count[core] / s.Interval)
	s.Count[core] %= s.Interval
	return due
}

// Visit hands c the per-core checkpoint state: each core's reference
// count and foreign-stream position. The core count must match, and a
// decoded count must be short of a switch, as Due leaves it.
func (s *CtxSched) Visit(c *flat.Codec) {
	c.Fixed(len(s.Count), "context-switch cores")
	for i := range s.Count {
		c.U64(&s.Count[i])
		c.U64(&s.RNG[i])
		if s.Count[i] >= s.Interval {
			c.Fail(fmt.Errorf("vm: core %d is %d references into a %d-reference interval", i, s.Count[i], s.Interval))
		}
	}
}

// ForeignVPN returns the next synthetic foreign-tenant TLB key for core:
// ForeignBit keeps it disjoint from every workload vpn.
func (s *CtxSched) ForeignVPN(core int) uint64 {
	s.RNG[core] += guestDim
	return tlb.ForeignBit | (mix64(s.RNG[core]) & foreignVPNMask)
}
