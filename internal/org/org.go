// Package org defines the pluggable DRAM-cache organization layer: every
// L3 design the simulator evaluates (Section 4 of the paper plus the
// extra baselines) implements the Organization interface and registers a
// factory keyed by its config.L3Design value. The system package resolves
// the configured design through the registry, so adding a new organization
// is one new file in this package plus experiment wiring — no edits to the
// machine's per-reference path.
//
// An Organization owns the design-specific state (tag arrays, interleave
// maps, the tagless controller) and issues its own device traffic through
// the narrow Ports view it is constructed with. The Machine keeps the
// design-agnostic per-reference pipeline: trace, TLBs, on-die caches, and
// the translation-side tagless specifics (cTLB keys are an addressing
// concern, not a cache-organization one).
package org

import (
	"fmt"
	"sort"

	"taglessdram/internal/config"
	"taglessdram/internal/core"
	"taglessdram/internal/cpu"
	"taglessdram/internal/dram"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
)

// PABit distinguishes physically-addressed lines from cache-addressed
// lines in the on-die caches of the tagless design (non-cacheable pages
// keep physical addresses; Section 3.2).
const PABit = uint64(1) << 62

// Request is one L2-miss memory access, passed by value so the hot path
// stays allocation-free (a pointer argument through an interface method
// would force a heap escape).
type Request struct {
	// CPU is the requesting core's timing model: Now/ReserveMSHR/
	// Block/CompleteMSHR drive the access's latency exposure.
	CPU *cpu.Core
	// Key is the on-die cache key: a cache address for cached pages in
	// the tagless design (PABit-tagged physical address for NC pages), a
	// physical byte address for every other design.
	Key uint64
	// Frame is the translated page frame (physical page number, or the
	// region cache address in tagless superpage mode).
	Frame uint64
	// Offset is the byte offset within the page.
	Offset uint64
	// NC marks a non-cacheable page (tagless design only).
	NC bool
	// Write distinguishes stores from loads.
	Write bool
	// Dep marks a dependent load whose latency is exposed on the
	// dependence chain (serializes) rather than overlapped via MSHRs.
	Dep bool
}

// Ports is the narrow view of the machine an Organization is constructed
// against: the two DRAM devices, the event kernel, the configuration, the
// latency observer, and the controller-side memory operations.
type Ports struct {
	Cfg    *config.SystemConfig
	InPkg  *dram.Device
	OffPkg *dram.Device
	Kernel *sim.Kernel
	// Mem issues the device traffic of page fills and evictions (the
	// tagless controller, SRAM and Banshee) and of the tagless
	// controller's GIPT updates. The machine passes a DeviceMem.
	Mem core.MemOps
	// Observe records one L3 access's device-side latency and hit/miss
	// into the machine's measurement state.
	Observe func(lat sim.Tick, hit bool)
	// Lat receives per-reference latency attribution (queue/service
	// split per device access, tag-probe and write-back charges). An
	// organization must attribute every cycle of each access's critical
	// path — the recorder enforces that the charges sum exactly to the
	// latency passed to Observe. May be nil (Recorder methods are
	// nil-safe); the machine always wires one.
	Lat *lat.Recorder
	// Walk prices a page-table walk through the machine's internal/vm
	// walk model, which attributes its own latency components. May be
	// nil (tests constructing Ports directly): the tagless controller
	// then falls back to its fixed WalkCycles cost.
	Walk func(at sim.Tick, coreID int, vpn uint64) sim.Tick
}

// charge attributes one device access's critical-path cycles to its
// queue-wait and service components. The dram.Result identity
// (QueueWait + Service == Done - arrival) makes the pair conserve the
// access's full latency.
func charge(rec *lat.Recorder, q, s lat.Component, r dram.Result) {
	rec.Add(q, r.QueueWait)
	rec.Add(s, r.Service)
}

// Stats holds the design-specific counters an Organization contributes
// to the run's Result. Fields a design does not count stay zero; a design
// adds a field only when a Result field reads it.
type Stats struct {
	// Ctrl holds the tagless controller's counters.
	Ctrl core.Stats
	// Tag holds the SRAM tag array's counts, which give the Result's
	// SRAMHitRate and the tag energy.
	Tag TagStats
}

// Organization is one DRAM-cache design: it serves L2 misses and dirty
// on-die victims, counts into its Stats, supports functional
// fast-forward and checkpoints its state.
type Organization interface {
	// Access performs the design-specific memory access for an L2 miss,
	// issuing device traffic and charging the requesting core.
	Access(r Request)
	// Writeback sinks a dirty on-die victim line into the level below,
	// off the core's critical path (device traffic only).
	Writeback(at sim.Tick, key uint64)
	// Stats returns the design's counters. The machine zeroes them at
	// the warmup/measure boundary and reads them into the Result.
	Stats() *Stats
	// Visit hands the design's checkpoint state to c — tag arrays,
	// frequency counters — checking decoded geometry against its own. A
	// design with no state visits nothing. The tagless controller is not
	// part of it: the machine owns the page tables its PTE pointers
	// resolve against and visits the controller itself.
	Visit(c *flat.Codec)
	FastPath
}

// FastRequest is one L2-miss access on the functional fast-forward path:
// the same addressing fields as Request with a timestamp in place of the
// timing handles (no CPU, no dependence — the fast path models state, not
// latency).
type FastRequest struct {
	// At is the requesting core's clock, used only where the design keeps
	// recency state (the tagless controller's LRU timestamps).
	At sim.Tick
	// Key, Frame, Offset, NC and Write have Request's meanings.
	Key    uint64
	Frame  uint64
	Offset uint64
	NC     bool
	Write  bool
}

// FastPath is an Organization's functional fast-forward half.
// FastAccess and FastWriteback apply the state transitions of Access and
// Writeback (residence, replacement, dirtiness) by calling the same state
// functions, with no device traffic, no kernel events and no latency
// charging. FastBegin/FastEnd bracket each fast-forwarded span: FastBegin
// saves the Stats and FastEnd restores them, so fast-forwarded
// references warm state without polluting measured-window counters.
type FastPath interface {
	FastBegin()
	FastAccess(r FastRequest)
	FastWriteback(at sim.Tick, key uint64)
	FastEnd()
}

// stats is the statistics half every design embeds: its counters and
// their rollback across a fast-forwarded span. The zero value is ready;
// a design counts by handing its components pointers into st.
type stats struct{ st, saved Stats }

// Stats implements Organization.
func (s *stats) Stats() *Stats { return &s.st }

// FastBegin implements FastPath: it saves the counters.
func (s *stats) FastBegin() { s.saved = s.st }

// FastEnd implements FastPath: it restores the counters FastBegin saved.
func (s *stats) FastEnd() { s.st = s.saved }

// noWarmState is the fast path and checkpoint of a design with no
// residence or replacement state to warm: fast-forwarded accesses and
// write-backs leave nothing behind, and there is nothing to checkpoint.
type noWarmState struct{ stats }

// Visit implements Organization: there is no state.
func (noWarmState) Visit(*flat.Codec) {}

// FastAccess implements FastPath as a no-op.
func (noWarmState) FastAccess(FastRequest) {}

// FastWriteback implements FastPath as a no-op.
func (noWarmState) FastWriteback(sim.Tick, uint64) {}

// Factory builds an Organization from the machine's ports.
type Factory func(p Ports) (Organization, error)

var registry = map[config.L3Design]Factory{}

// Register installs a factory for a design. Each design file registers
// itself from init(), so importing this package populates the registry.
func Register(d config.L3Design, f Factory) {
	if _, dup := registry[d]; dup {
		panic(fmt.Sprintf("org: duplicate registration for design %v", d))
	}
	registry[d] = f
}

// New resolves a design through the registry and builds its organization.
func New(d config.L3Design, p Ports) (Organization, error) {
	f, ok := registry[d]
	if !ok {
		return nil, fmt.Errorf("org: no organization registered for design %v", d)
	}
	return f(p)
}

// Registered lists every registered design in enum order (deterministic,
// independent of registration order).
func Registered() []config.L3Design {
	out := make([]config.L3Design, 0, len(registry))
	for d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// issue runs one block-granularity memory access: dependent loads
// serialize (their latency is exposed on the dependence chain),
// independent ones overlap through the MSHR window. access closures stay
// stack-allocated: issue is a static call that never stores them.
func issue(c *cpu.Core, observe func(sim.Tick, bool), dep, hit bool, access func(at sim.Tick) sim.Tick) {
	var at sim.Tick
	if dep {
		at = c.Now()
	} else {
		at = c.ReserveMSHR()
	}
	done := access(at)
	if dep {
		c.Block(done)
	} else {
		c.CompleteMSHR(done)
	}
	observe(done-at, hit)
}

// kindOf maps a store/load to the DRAM access kind.
func kindOf(write bool) dram.AccessKind {
	if write {
		return dram.Write
	}
	return dram.Read
}
