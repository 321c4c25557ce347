// Package lat implements the cycle-accounting layer: per-reference
// latency attribution over a fixed component enum, with log2-bucketed
// latency histograms for tail metrics (p50/p90/p99/p999, max).
//
// The central contract is conservation: for every committed reference
// scope, the attributed component cycles must sum exactly to the
// measured stall cycles. The Recorder verifies the invariant on every
// commit and accumulates any violation into Breakdown.Residue, so a
// single mis-attributed cycle anywhere in the system or organization
// layer is visible as a nonzero residue rather than silently skewing
// the breakdown.
//
// All state is fixed-size value storage: observing, attributing and
// committing never allocate, so the accounting layer can stay enabled
// on the simulator's 0-allocs-per-reference step path.
package lat

import (
	"math"
	"math/bits"

	"taglessdram/internal/flat"
	"taglessdram/internal/sim"
)

// Component names one source of memory-reference stall cycles. The enum
// follows the paper's latency taxonomy (Equations 1–5): translation
// costs, tag/victim probes, and the queue/service split on each DRAM
// device. String values are stable identifiers used as metrics-JSON
// keys; do not rename them.
type Component int

const (
	// CTLBLookup is the cTLB lookup itself. Under the paper's model the
	// lookup is folded into the TLB hierarchy's fixed pipeline latency
	// and contributes zero measured stall; the component exists so the
	// enum matches the paper's taxonomy and stays stable if a pipelined
	// cTLB model is added.
	CTLBLookup Component = iota
	// PTWalk is the page-table walk portion of a TLB miss.
	PTWalk
	// GIPTUpdate is the GIPT update on the tagless fill path.
	GIPTUpdate
	// VictimProbe is a victim/tag probe: the SRAM tag-array access, the
	// Alloy TAD probe, or the tagless alias-table lookup.
	VictimProbe
	// InPkgQueue is time spent waiting for in-package DRAM resources
	// (bank free, data-bus contention) — including waits on another
	// core's in-flight in-package fill.
	InPkgQueue
	// InPkgService is in-package DRAM service time: command timing
	// (ACT/PRE/CAS) plus data transfer.
	InPkgService
	// OffPkgQueue is off-package DRAM queueing time.
	OffPkgQueue
	// OffPkgService is off-package DRAM service time.
	OffPkgService
	// Writeback is dirty-victim write-back time: on the stall path only
	// when an eviction lands inline on the access path, otherwise
	// background bandwidth.
	Writeback
	// PTWalkGuest is the guest-dimension portion of a nested (2D) page
	// walk: references into the guest page table, translated through the
	// host dimension.
	PTWalkGuest
	// PTWalkHost is the host-dimension portion of a nested walk: the host
	// page-table references needed to translate each guest level plus the
	// final guest-physical address.
	PTWalkHost
	// TLBShootdown is TLB invalidation traffic: context-switch flushes and
	// cross-core shared-L2 invalidations, charged as background cycles.
	TLBShootdown

	// NumComponents sizes component-indexed arrays.
	NumComponents
)

var componentNames = [NumComponents]string{
	"ctlb_lookup",
	"pt_walk",
	"gipt_update",
	"victim_probe",
	"inpkg_queue",
	"inpkg_service",
	"offpkg_queue",
	"offpkg_service",
	"writeback",
	"ptwalk_guest",
	"ptwalk_host",
	"tlb_shootdown",
}

// String returns the stable metric-key identifier of the component.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return "unknown"
	}
	return componentNames[c]
}

// NumBuckets is the log2 histogram size: bucket 0 holds zero-cycle
// samples and bucket b >= 1 holds samples in [2^(b-1), 2^b).
const NumBuckets = 65

// BucketBounds returns the inclusive [lo, hi] sample range of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 0
	}
	lo = uint64(1) << uint(i-1)
	if i == 64 {
		return lo, math.MaxUint64
	}
	return lo, lo<<1 - 1
}

// QuantileOf estimates the p-th quantile (0 < p <= 100) of a bucket-count
// array, interpolating linearly within the selected bucket. It serves
// both full histograms and epoch-delta count arrays. p outside (0, 100]
// (including NaN) returns NaN; an empty array returns 0.
func QuantileOf(counts *[NumBuckets]uint64, p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p > 100 {
		return math.NaN()
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo, hi := BucketBounds(i)
			frac := float64(target-(cum-c)) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
	}
	return 0 // unreachable: cum reaches total >= target
}

// Hist is an allocation-free log2-bucketed latency histogram. The zero
// value is ready to use.
type Hist struct {
	counts [NumBuckets]uint64
	total  uint64
	sum    uint64
	max    uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.counts[bits.Len64(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 { return h.total }

// Max returns the largest observed sample.
func (h *Hist) Max() uint64 { return h.max }

// Sum returns the exact sum of all samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile estimates the p-th quantile (0 < p <= 100) by linear
// interpolation within the selected log2 bucket, clamped to the exact
// observed maximum.
func (h *Hist) Quantile(p float64) float64 {
	q := QuantileOf(&h.counts, p)
	if q > float64(h.max) {
		return float64(h.max)
	}
	return q
}

// Counts returns a copy of the bucket-count array, for epoch snapshot
// diffing (value copy, no allocation).
func (h *Hist) Counts() [NumBuckets]uint64 { return h.counts }

// BucketRow is one non-empty histogram bucket for rendering.
type BucketRow struct {
	Lo, Hi uint64 // inclusive sample bounds of the bucket
	Count  uint64
}

// Rows returns the non-empty buckets in ascending order. Cold path:
// allocates the slice.
func (h *Hist) Rows() []BucketRow {
	out := make([]BucketRow, 0, 16)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		out = append(out, BucketRow{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// histImageVersion tags Hist's flat image. The image is what the
// persistent result cache stores for the latency tail metrics, so
// changing its layout requires bumping the cache's entry format too.
const histImageVersion = 1

// Visit hands h's flat image to c: one version byte, then NumBuckets+3
// uvarints — the bucket counts, then total, sum and max. Empty buckets
// cost one byte each. A decoding c that fails leaves h unwritten.
func (h *Hist) Visit(c *flat.Codec) {
	x := *h
	c.Fixed(histImageVersion, "histogram image version")
	for i := range x.counts {
		c.U64(&x.counts[i])
	}
	c.U64(&x.total)
	c.U64(&x.sum)
	c.U64(&x.max)
	if c.Decoding() && c.Err() == nil {
		*h = x
	}
}

// Breakdown accumulates attributed cycles per component over many
// committed scopes, together with the conservation bookkeeping.
type Breakdown struct {
	// Cycles is the attributed cycle total per component.
	Cycles [NumComponents]uint64
	// Commits counts committed scopes.
	Commits uint64
	// Measured is the total measured stall cycles across commits.
	Measured uint64
	// Residue accumulates |attributed − measured| per commit. Zero means
	// the conservation invariant held exactly on every commit.
	Residue uint64
}

// Total returns the attributed cycle sum across components.
func (b *Breakdown) Total() uint64 {
	var sum uint64
	for _, c := range b.Cycles {
		sum += c
	}
	return sum
}

// Summary is the value snapshot of a Recorder's accumulated state,
// carried on system.Result.
type Summary struct {
	// L3 is the device-side access scope: one commit per L3 access,
	// measured against the organization's observed access latency.
	L3 Breakdown
	// Handler is the TLB-miss handler scope: one commit per miss,
	// measured against the handler's end-to-end latency.
	Handler Breakdown
	// Bg collects background (non-stall) traffic attribution — daemon
	// and victim write-backs. Trivially conserved per contribution.
	Bg Breakdown
	// L3Lat and HandlerLat are the latency distributions of the two
	// committed scopes.
	L3Lat, HandlerLat Hist
}

// Recorder is the per-machine accounting state: one open attribution
// scope (span) shared by the sequentially executed L3-access and
// TLB-miss-handler paths, plus the accumulated breakdowns and
// histograms. All methods are nil-safe and no-ops until Enable, so an
// un-enabled recorder costs the hot path one bool check.
type Recorder struct {
	enabled bool
	span    [NumComponents]uint64

	l3      Breakdown
	handler Breakdown
	bg      Breakdown

	l3Lat      Hist
	handlerLat Hist
}

// Enable turns accounting on (at the measurement boundary).
func (r *Recorder) Enable() {
	if r == nil {
		return
	}
	r.enabled = true
}

// Enabled reports whether the recorder is accumulating.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Reset clears all accumulated state and disables the recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	*r = Recorder{}
}

// Begin opens a new attribution scope, discarding any abandoned span.
func (r *Recorder) Begin() {
	if r == nil || !r.enabled {
		return
	}
	r.span = [NumComponents]uint64{}
}

// Add attributes d cycles of the open scope to component c.
func (r *Recorder) Add(c Component, d sim.Tick) {
	if r == nil || !r.enabled {
		return
	}
	r.span[c] += uint64(d)
}

// AddBackground attributes d cycles of background (non-stall) traffic
// to component c, outside any scope. Background contributions are
// trivially conserved.
func (r *Recorder) AddBackground(c Component, d sim.Tick) {
	if r == nil || !r.enabled {
		return
	}
	r.bg.Cycles[c] += uint64(d)
	r.bg.Measured += uint64(d)
	r.bg.Commits++
}

// CommitL3 closes the open scope against one L3 access's measured
// latency.
func (r *Recorder) CommitL3(measured sim.Tick) {
	if r == nil || !r.enabled {
		return
	}
	r.commit(&r.l3, &r.l3Lat, uint64(measured))
}

// CommitHandler closes the open scope against one TLB miss handler's
// measured latency.
func (r *Recorder) CommitHandler(measured sim.Tick) {
	if r == nil || !r.enabled {
		return
	}
	r.commit(&r.handler, &r.handlerLat, uint64(measured))
}

func (r *Recorder) commit(b *Breakdown, h *Hist, measured uint64) {
	var sum uint64
	for i, c := range r.span {
		b.Cycles[i] += c
		sum += c
		r.span[i] = 0
	}
	b.Commits++
	b.Measured += measured
	if sum >= measured {
		b.Residue += sum - measured
	} else {
		b.Residue += measured - sum
	}
	h.Observe(measured)
}

// L3Counts returns a copy of the L3 latency histogram's bucket counts,
// for epoch snapshot diffing.
func (r *Recorder) L3Counts() [NumBuckets]uint64 {
	if r == nil {
		return [NumBuckets]uint64{}
	}
	return r.l3Lat.Counts()
}

// Summary snapshots the accumulated state.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	return Summary{
		L3:         r.l3,
		Handler:    r.handler,
		Bg:         r.bg,
		L3Lat:      r.l3Lat,
		HandlerLat: r.handlerLat,
	}
}
