// Package obs provides the epoch-resolved observability layer: a
// fixed-capacity, allocation-free Sampler the machine drives every N
// measured trace references. End-of-run aggregates (system.Result) hide
// phase behavior — warm-up vs. steady state, free-queue pressure bursts,
// a frequency-managed cache's fill ramp — so the sampler captures a time
// series of per-epoch deltas (IPC, L3 hit rate, cTLB miss rate, DRAM
// traffic, controller counters) plus instantaneous gauges (free-block
// count, free-queue depth).
//
// The sampler is passive: it only reads counters the simulation already
// maintains, so attaching one never perturbs simulated behavior, and a
// nil sampler costs the hot path a single pointer check.
package obs

import (
	"taglessdram/internal/core"
	"taglessdram/internal/lat"
)

// DefaultCapacity is the epoch ring size when the caller does not choose
// one: enough for a full default run (3M measured instructions at a
// 2000-reference epoch) without wrapping.
const DefaultCapacity = 4096

// Gauges are instantaneous values polled at each epoch boundary, as
// opposed to the counter deltas the sampler computes itself. They come
// from the tagless controller; the other designs report zeros.
type Gauges struct {
	// FreeBlocks is the number of immediately allocatable cache blocks
	// (the tagless controller's free-list depth).
	FreeBlocks int `json:"free_blocks"`
	// FreeQueueLen is the number of blocks awaiting the eviction daemon.
	FreeQueueLen int `json:"free_queue_len"`
}

// Cumulative is one snapshot of the monotonically growing counter set
// the sampler diffs to produce per-epoch deltas. The machine assembles
// it from its measurement counters, the DRAM devices and the
// organization's Stats; all counter fields must be cumulative
// over the measured window (gauges are carried through as-is).
type Cumulative struct {
	Cycle        uint64 // leading active core's measured cycles
	Refs         uint64 // trace references processed
	Instructions uint64 // instructions retired (measured, all cores)

	L3Accesses, L3Hits    uint64
	TLBLookups, TLBMisses uint64

	InPkgBytes, OffPkgBytes          uint64
	InPkgRowAccesses, InPkgRowHits   uint64
	OffPkgRowAccesses, OffPkgRowHits uint64

	// L3LatBuckets is the L3 latency histogram's cumulative bucket counts
	// (value array — snapshotting stays allocation-free); the sampler
	// diffs consecutive snapshots to compute per-epoch tail quantiles.
	L3LatBuckets [lat.NumBuckets]uint64
	// InPkgBusBusy/OffPkgBusBusy are cumulative data-bus busy ticks summed
	// over each device's channels; the channel counts turn the deltas into
	// per-epoch utilizations.
	InPkgBusBusy, OffPkgBusBusy   uint64
	InPkgChannels, OffPkgChannels int

	Ctrl   core.Stats // controller counters (tagless design; zero otherwise)
	Gauges Gauges
}

// Epoch is one sampling interval: counter fields are deltas over the
// epoch, rate fields are computed from those deltas, and gauge fields
// are the instantaneous values at the epoch boundary.
type Epoch struct {
	// Index numbers epochs from zero in capture order; when the ring
	// wraps, retained epochs keep their original indices.
	Index int `json:"epoch"`
	// EndCycle is the measured cycle at which the epoch closed.
	EndCycle uint64 `json:"end_cycle"`

	Refs         uint64  `json:"refs"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`

	L3Accesses uint64  `json:"l3_accesses"`
	L3Hits     uint64  `json:"l3_hits"`
	L3HitRate  float64 `json:"l3_hit_rate"`

	TLBLookups  uint64  `json:"ctlb_lookups"`
	TLBMisses   uint64  `json:"ctlb_misses"`
	TLBMissRate float64 `json:"ctlb_miss_rate"`

	FreeBlocks   int `json:"free_blocks"`
	FreeQueueLen int `json:"free_queue_len"`

	InPkgBytes       uint64  `json:"inpkg_bytes"`
	OffPkgBytes      uint64  `json:"offpkg_bytes"`
	InPkgRowHitRate  float64 `json:"inpkg_row_hit_rate"`
	OffPkgRowHitRate float64 `json:"offpkg_row_hit_rate"`

	// L3LatP99 is the epoch's 99th-percentile L3 access latency in cycles
	// (from the epoch's own histogram-bucket deltas, not the cumulative
	// distribution).
	L3LatP99 float64 `json:"l3_lat_p99"`
	// InPkgBusUtil/OffPkgBusUtil are the epoch's data-bus utilizations:
	// busy-tick delta over epoch cycles, averaged across channels.
	InPkgBusUtil  float64 `json:"inpkg_bus_util"`
	OffPkgBusUtil float64 `json:"offpkg_bus_util"`

	// Ctrl carries the tagless controller's per-epoch counter deltas
	// (zero for other designs).
	Ctrl core.Stats `json:"ctrl"`
}

// Sampler accumulates epoch snapshots into a fixed-capacity ring. All
// storage is allocated at construction: Tick and Record perform no
// allocation, so an attached sampler keeps the simulator's steady-state
// step path allocation-free. When more epochs are captured than the ring
// holds, the oldest are overwritten (Dropped reports how many).
type Sampler struct {
	epochRefs uint64
	pending   uint64

	ring     []Epoch
	head     int // next write slot
	n        int // valid entries
	captured int // epochs ever captured

	prev Cumulative

	// scratch holds the current epoch's histogram-bucket deltas during
	// Record (fixed array — no per-epoch allocation).
	scratch [lat.NumBuckets]uint64
}

// NewSampler returns a sampler that closes an epoch every epochRefs
// measured references, retaining at most capacity epochs (<= 0 selects
// DefaultCapacity). epochRefs must be positive.
func NewSampler(epochRefs uint64, capacity int) *Sampler {
	if epochRefs == 0 {
		panic("obs: epoch length must be positive")
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sampler{epochRefs: epochRefs, ring: make([]Epoch, capacity)}
}

// Capacity returns the ring size.
func (s *Sampler) Capacity() int { return len(s.ring) }

// Tick counts one measured reference and reports whether it closed an
// epoch; the caller then snapshots its counters and calls Record.
func (s *Sampler) Tick() bool {
	s.pending++
	if s.pending < s.epochRefs {
		return false
	}
	s.pending = 0
	return true
}

// Rebase sets the cumulative baseline the next epoch is diffed against
// and discards any partially counted epoch. The machine calls it at the
// warmup/measure boundary so epoch zero covers measured behavior only.
func (s *Sampler) Rebase(c Cumulative) {
	s.prev = c
	s.pending = 0
}

// Record closes one epoch: the delta between c and the previous
// cumulative snapshot is written into the ring (overwriting the oldest
// epoch when full) and c becomes the new baseline.
func (s *Sampler) Record(c Cumulative) {
	e := &s.ring[s.head]
	p := &s.prev
	e.Index = s.captured
	e.EndCycle = c.Cycle
	e.Refs = c.Refs - p.Refs
	e.Instructions = c.Instructions - p.Instructions
	e.Cycles = c.Cycle - p.Cycle
	e.IPC = ratio(e.Instructions, e.Cycles)
	e.L3Accesses = c.L3Accesses - p.L3Accesses
	e.L3Hits = c.L3Hits - p.L3Hits
	e.L3HitRate = ratio(e.L3Hits, e.L3Accesses)
	e.TLBLookups = c.TLBLookups - p.TLBLookups
	e.TLBMisses = c.TLBMisses - p.TLBMisses
	e.TLBMissRate = ratio(e.TLBMisses, e.TLBLookups)
	e.FreeBlocks = c.Gauges.FreeBlocks
	e.FreeQueueLen = c.Gauges.FreeQueueLen
	e.InPkgBytes = c.InPkgBytes - p.InPkgBytes
	e.OffPkgBytes = c.OffPkgBytes - p.OffPkgBytes
	e.InPkgRowHitRate = ratio(c.InPkgRowHits-p.InPkgRowHits, c.InPkgRowAccesses-p.InPkgRowAccesses)
	e.OffPkgRowHitRate = ratio(c.OffPkgRowHits-p.OffPkgRowHits, c.OffPkgRowAccesses-p.OffPkgRowAccesses)
	for i := range s.scratch {
		s.scratch[i] = c.L3LatBuckets[i] - p.L3LatBuckets[i]
	}
	e.L3LatP99 = lat.QuantileOf(&s.scratch, 99)
	e.InPkgBusUtil = busUtil(c.InPkgBusBusy-p.InPkgBusBusy, e.Cycles, c.InPkgChannels)
	e.OffPkgBusUtil = busUtil(c.OffPkgBusBusy-p.OffPkgBusBusy, e.Cycles, c.OffPkgChannels)
	e.Ctrl = c.Ctrl.Sub(p.Ctrl)

	s.head++
	if s.head == len(s.ring) {
		s.head = 0
	}
	if s.n < len(s.ring) {
		s.n++
	}
	s.captured++
	s.prev = c
}

// Len returns the number of epochs currently retained.
func (s *Sampler) Len() int { return s.n }

// Dropped returns how many epochs were overwritten by ring wrap-around.
func (s *Sampler) Dropped() int { return s.captured - s.n }

// Epochs returns the retained epochs oldest-first as a fresh slice
// (nil when nothing was captured). It is a cold-path call: the copy
// allocates, Record never does.
func (s *Sampler) Epochs() []Epoch {
	if s.n == 0 {
		return nil
	}
	out := make([]Epoch, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(start+i)%len(s.ring)]
	}
	return out
}

// ratio returns num/den as a float64, or 0 when den is zero.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// busUtil converts a busy-tick delta into an average per-channel
// utilization over the epoch, clamped to 1 (an epoch boundary can land
// mid-transfer, crediting busy ticks slightly past the epoch's cycles).
func busUtil(busy, cycles uint64, channels int) float64 {
	if cycles == 0 || channels <= 0 {
		return 0
	}
	u := float64(busy) / (float64(cycles) * float64(channels))
	if u > 1 {
		return 1
	}
	return u
}
