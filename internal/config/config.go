// Package config defines the architectural parameters of the simulated
// system. The defaults reproduce Tables 3, 4 and 6 of the paper:
//
//   - Table 3: CPU, TLB, cache and DRAM organization.
//   - Table 4: timing and energy parameters for 3D in-package DRAM and
//     off-package DDR3 DRAM (adapted from the Microbank paper).
//   - Table 6: SRAM tag-array size and access latency as a function of
//     DRAM-cache size (obtained by the authors from CACTI 6.5).
//
// All latencies inside the simulator are expressed in CPU cycles at the
// configured core frequency (3 GHz by default), so 1 ns = 3 cycles.
package config

import (
	"fmt"
	"math"
	"strings"
)

// Common size units.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// PageSize is the OS page size the tagless cache aligns its caching
// granularity to (Section 3.1).
const PageSize = 4 * KB

// BlockSize is the on-die cache line size.
const BlockSize = 64

// CPUConfig describes the out-of-order cores (Table 3, "CPU").
type CPUConfig struct {
	Cores      int     // number of cores
	FreqGHz    float64 // core clock
	IssueWidth int     // instructions retired per cycle when not stalled
	MSHRs      int     // outstanding L2-miss window per core (MLP limit)
}

// TLBConfig describes one TLB level (Table 3, "L1 TLB"/"L2 TLB").
type TLBConfig struct {
	Entries int // total entries
	Ways    int // associativity (Entries/Ways sets)
}

// Sets returns the number of sets implied by Entries and Ways.
func (c TLBConfig) Sets() int {
	if c.Ways <= 0 {
		return c.Entries
	}
	return c.Entries / c.Ways
}

// CacheConfig describes one on-die SRAM cache level (Table 3, L1/L2).
type CacheConfig struct {
	SizeBytes    int64 // total capacity
	Ways         int   // associativity
	LineBytes    int   // line size
	LatencyCycle int   // hit latency in CPU cycles
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	return int(c.SizeBytes / int64(c.LineBytes) / int64(c.Ways))
}

// DRAMTiming gives device timing in nanoseconds (Table 4).
// The refresh pair is optional (zero disables refresh): the paper's
// Table 4 does not model refresh, so the default configuration leaves it
// off; enable it for realism studies.
type DRAMTiming struct {
	TRCDns  float64 // activate to read delay
	TAAns   float64 // read to first data delay
	TRASns  float64 // activate to precharge delay
	TRPns   float64 // precharge command period
	TREFIns float64 // refresh interval (0 = no refresh)
	TRFCns  float64 // refresh cycle time (blackout per interval)
	TFAWns  float64 // four-activate window per rank (0 = unconstrained)
}

// DRAMEnergy gives device energy parameters (Table 4).
type DRAMEnergy struct {
	IOPerBitPJ     float64 // I/O energy per bit
	RDWRPerBitPJ   float64 // read/write energy per bit, without I/O
	ActPrePerRowNJ float64 // ACT+PRE energy for one 4KB row
}

// DRAMConfig describes one DRAM device: geometry, clocking, timing and
// energy (Table 3 "In-package DRAM"/"Off-package DRAM" plus Table 4).
type DRAMConfig struct {
	SizeBytes    int64
	BusGHz       float64 // bus clock; DDR transfers on both edges
	Channels     int
	RanksPerChan int
	BanksPerRank int
	BusBits      int // data bus width per channel
	RowBytes     int // row-buffer (page) size per bank
	// Microbanks subdivides each bank into independently timed
	// sub-banks with private row buffers, following the Microbank
	// die-stacked DRAM model the paper adapts its timing from (Son et
	// al., SC'14). It also stands in for FR-FCFS row-hit-first
	// scheduling, which the arrival-order bank timeline cannot reorder.
	// Zero or one means conventional banks.
	Microbanks int
	Timing     DRAMTiming
	Energy     DRAMEnergy
}

// TotalBanks returns the number of physical banks across the device.
func (c DRAMConfig) TotalBanks() int {
	return c.Channels * c.RanksPerChan * c.BanksPerRank
}

// RowBuffers returns the number of independently schedulable row buffers
// (banks × microbanks).
func (c DRAMConfig) RowBuffers() int {
	mb := c.Microbanks
	if mb < 1 {
		mb = 1
	}
	return c.TotalBanks() * mb
}

// TransferNS returns the data-bus occupancy, in nanoseconds, of moving
// `bytes` over one channel with double-data-rate signalling.
func (c DRAMConfig) TransferNS(bytes int) float64 {
	bytesPerNS := c.BusGHz * 2 * float64(c.BusBits) / 8
	return float64(bytes) / bytesPerNS
}

// PeakBandwidthGBs returns the aggregate peak bandwidth in GB/s.
func (c DRAMConfig) PeakBandwidthGBs() float64 {
	return c.BusGHz * 2 * float64(c.BusBits) / 8 * float64(c.Channels)
}

// ReplacementPolicy selects the victim-selection policy of a DRAM cache.
type ReplacementPolicy int

const (
	// FIFO is the paper's default for the tagless cache: the header
	// pointer advances block by block (Section 3.2).
	FIFO ReplacementPolicy = iota
	// LRU approximates least-recently-used victim selection (used by the
	// SRAM-tag baseline and in the Figure 11 sensitivity study).
	LRU
	// CLOCK is the second-chance policy the paper names as the practical
	// LRU approximation (Section 5.2): FIFO order with a reference bit
	// that grants one extra pass.
	CLOCK
)

// String implements fmt.Stringer.
func (p ReplacementPolicy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case LRU:
		return "LRU"
	case CLOCK:
		return "CLOCK"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// MarshalText renders the policy by name. JSON (the sweep wire and the
// result-cache key) and the -policy flag both go through this codec.
func (p ReplacementPolicy) MarshalText() ([]byte, error) {
	switch p {
	case FIFO, LRU, CLOCK:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("unknown replacement policy %d", int(p))
}

// UnmarshalText parses FIFO, LRU or CLOCK in any case and rejects
// anything else.
func (p *ReplacementPolicy) UnmarshalText(text []byte) error {
	for _, q := range []ReplacementPolicy{FIFO, LRU, CLOCK} {
		if strings.EqualFold(string(text), q.String()) {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("unknown replacement policy %q (want FIFO, LRU, CLOCK)", text)
}

// L3Design selects the DRAM-cache organization under evaluation (Section 4).
type L3Design int

const (
	// NoL3 is the baseline: off-package DRAM only.
	NoL3 L3Design = iota
	// BankInterleave maps in-package DRAM into the physical address space
	// with OS-oblivious interleaving ("BI" in the paper).
	BankInterleave
	// SRAMTag is the page-based cache with an on-die SRAM tag array
	// (16-way set-associative, LRU), the paper's main tag-based baseline.
	SRAMTag
	// Tagless is the proposed cTLB-based tagless cache.
	Tagless
	// Ideal stores all data in in-package DRAM.
	Ideal
	// AlloyBlock is the block-based design class of Table 2: a
	// direct-mapped 64B-line cache with tags in DRAM (Alloy-style). It
	// is not part of the paper's five plotted designs but completes the
	// block-based vs page-based vs tagless comparison.
	AlloyBlock
	// Banshee is a Banshee-style page-granularity cache (Yu et al., see
	// PAPERS.md): TLB-carried mappings like the tagless design, but with
	// frequency-based replacement, fill-after-N-touches bandwidth
	// filtering, and a small tag buffer for recent remappings. Like
	// AlloyBlock it is an extra baseline, not one of the paper's five.
	Banshee
)

// String implements fmt.Stringer.
func (d L3Design) String() string {
	switch d {
	case NoL3:
		return "NoL3"
	case BankInterleave:
		return "BI"
	case SRAMTag:
		return "SRAM"
	case Tagless:
		return "cTLB"
	case Ideal:
		return "Ideal"
	case AlloyBlock:
		return "Alloy"
	case Banshee:
		return "Banshee"
	default:
		return fmt.Sprintf("L3Design(%d)", int(d))
	}
}

// AllDesigns lists every L3 organization in the order the paper plots them.
func AllDesigns() []L3Design {
	return []L3Design{NoL3, BankInterleave, SRAMTag, Tagless, Ideal}
}

// TaglessConfig holds parameters specific to the proposed design.
type TaglessConfig struct {
	// Alpha is the number of free blocks kept always available so that a
	// cache fill never waits for an eviction (Section 3.2); the paper
	// sets it to 1 following the heterogeneous-memory work it cites.
	Alpha int
	// Policy selects FIFO (default) or LRU victim selection (Figure 11).
	Policy ReplacementPolicy
	// NCAccessThreshold, when positive, marks pages with fewer than this
	// many expected accesses as non-cacheable (Section 5.4 uses 32).
	NCAccessThreshold int
	// SynchronousEviction forces evictions onto the access path (ablation
	// of the free-queue design; not used by the paper's configuration).
	SynchronousEviction bool
	// CachedGIPT models MMU caching of GIPT updates instead of the
	// paper's conservative two full off-package writes (Section 3.4).
	CachedGIPT bool
	// SharedAliasTable enables Section 6's physical→cache alias table so
	// inter-process shared pages are cached once. When false, shared
	// pages are marked non-cacheable (the solution the paper adopts in
	// Section 3.5).
	SharedAliasTable bool
	// HotFilterThreshold, when positive, enables online hot-page
	// filtering in the CHOP style the paper cites as complementary:
	// pages start non-cacheable and are promoted to cacheable after this
	// many accesses, so cold pages never pollute the cache. Unlike
	// NCAccessThreshold it needs no offline profile.
	HotFilterThreshold int
	// SuperpagePages, when >1, maps application regions as superpages of
	// that many base pages (Section 6): one cTLB entry, one GIPT entry
	// and one fill per region. Must be a power of two dividing the cache
	// page count. Non-cacheable and shared pages stay at 4KB.
	SuperpagePages int
}

// SystemConfig aggregates every parameter of a simulated machine.
type SystemConfig struct {
	CPU       CPUConfig
	L1TLB     TLBConfig
	L2TLB     TLBConfig
	L1I       CacheConfig
	L1D       CacheConfig
	L2        CacheConfig
	InPkg     DRAMConfig // in-package DRAM (the cache device)
	OffPkg    DRAMConfig // off-package DRAM (backing main memory)
	Design    L3Design
	CacheSize int64 // usable DRAM-cache capacity (≤ InPkg.SizeBytes)
	SRAMTag   SRAMTagConfig
	Tagless   TaglessConfig
	// PageWalkCycles is the latency of a page-table walk performed by the
	// TLB miss handler, excluding any cache-fill work. Used by the
	// fixed-cost walk model.
	PageWalkCycles int
	// WalkModel names the internal/vm walk model handling TLB misses:
	// "fixed" (the PageWalkCycles scalar, matching the paper's constant
	// MissPenalty_TLB), "pwc" (walk-cache-aware memory walk), or "nested"
	// (guest→host 2D walk for virtualized scenarios). Empty means fixed.
	WalkModel string
	// PWCHitCycles is the cost of one upper page-table level served by the
	// MMU's page-walk caches, used by the pwc and nested walk models. Must
	// be ≥ 0.
	PWCHitCycles int
	// TLBTopology names the internal/vm TLB arrangement: "private"
	// (per-core L1+L2, the default) or "shared" (per-core L1 over one
	// ASID-tagged L2 shared by all cores). Empty means private.
	TLBTopology string
	// CtxSwitchRefs, when positive, quiesces each core and context-switches
	// it every that many of its memory references, modeling multi-tenant
	// ASID pressure. Zero disables context switching.
	CtxSwitchRefs uint64
	// CtxSwitchFlush selects the context-switch TLB policy: true flushes
	// the outgoing address space's entries (non-ASID hardware), false
	// retains them under their ASID tag and instead injects foreign-tenant
	// TLB pressure.
	CtxSwitchFlush bool
	// CorePowerWatts is the average power of one core plus its share of
	// on-die caches, used by the EDP model.
	CorePowerWatts float64
}

// EffectiveWalkModel resolves the walk-model name, defaulting to
// "fixed".
func (c *SystemConfig) EffectiveWalkModel() string {
	if c.WalkModel != "" {
		return c.WalkModel
	}
	return "fixed"
}

// EffectiveTLBTopology resolves the TLB-topology name, defaulting to
// "private".
func (c *SystemConfig) EffectiveTLBTopology() string {
	if c.TLBTopology != "" {
		return c.TLBTopology
	}
	return "private"
}

// SRAMTagConfig describes the tag array of the SRAM-tag baseline.
type SRAMTagConfig struct {
	Ways int // set associativity of the page cache (16 in Table 3)
}

// NSToCycles converts nanoseconds to (rounded-up) CPU cycles.
func (c *SystemConfig) NSToCycles(ns float64) int {
	return int(math.Ceil(ns * c.CPU.FreqGHz))
}

// CachePages returns the number of page-sized blocks in the DRAM cache.
func (c *SystemConfig) CachePages() int {
	return int(c.CacheSize / PageSize)
}

// Validate checks internal consistency and returns a descriptive error for
// the first problem found.
func (c *SystemConfig) Validate() error {
	switch {
	case c.CPU.Cores <= 0:
		return fmt.Errorf("config: cores must be positive, got %d", c.CPU.Cores)
	case c.CPU.FreqGHz <= 0:
		return fmt.Errorf("config: core frequency must be positive, got %v", c.CPU.FreqGHz)
	case c.CPU.IssueWidth <= 0:
		return fmt.Errorf("config: issue width must be positive, got %d", c.CPU.IssueWidth)
	case c.CPU.MSHRs <= 0:
		return fmt.Errorf("config: MSHR count must be positive, got %d", c.CPU.MSHRs)
	}
	for _, t := range []struct {
		name string
		tlb  TLBConfig
	}{{"L1 TLB", c.L1TLB}, {"L2 TLB", c.L2TLB}} {
		if t.tlb.Entries <= 0 {
			return fmt.Errorf("config: %s entries must be positive", t.name)
		}
		if t.tlb.Ways <= 0 || t.tlb.Entries%t.tlb.Ways != 0 {
			return fmt.Errorf("config: %s ways %d must divide entries %d", t.name, t.tlb.Ways, t.tlb.Entries)
		}
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}} {
		if cc.c.SizeBytes <= 0 || cc.c.Ways <= 0 || cc.c.LineBytes <= 0 {
			return fmt.Errorf("config: %s geometry must be positive", cc.name)
		}
		if cc.c.Sets() <= 0 {
			return fmt.Errorf("config: %s has no sets (size %d, ways %d, line %d)",
				cc.name, cc.c.SizeBytes, cc.c.Ways, cc.c.LineBytes)
		}
		if cc.c.SizeBytes%(int64(cc.c.LineBytes)*int64(cc.c.Ways)) != 0 {
			return fmt.Errorf("config: %s size not divisible by ways*line", cc.name)
		}
	}
	for _, d := range []struct {
		name string
		d    DRAMConfig
	}{{"in-package DRAM", c.InPkg}, {"off-package DRAM", c.OffPkg}} {
		if d.d.SizeBytes <= 0 || d.d.Channels <= 0 || d.d.RanksPerChan <= 0 ||
			d.d.BanksPerRank <= 0 || d.d.BusBits <= 0 || d.d.RowBytes <= 0 {
			return fmt.Errorf("config: %s geometry must be positive", d.name)
		}
		if d.d.BusGHz <= 0 {
			return fmt.Errorf("config: %s bus clock must be positive", d.name)
		}
	}
	if c.CacheSize <= 0 && c.Design != NoL3 {
		return fmt.Errorf("config: cache size must be positive for design %v", c.Design)
	}
	if c.CacheSize > c.InPkg.SizeBytes {
		return fmt.Errorf("config: cache size %d exceeds in-package DRAM %d", c.CacheSize, c.InPkg.SizeBytes)
	}
	if c.CacheSize%PageSize != 0 {
		return fmt.Errorf("config: cache size %d not a multiple of the page size", c.CacheSize)
	}
	if c.Design == SRAMTag && c.SRAMTag.Ways <= 0 {
		return fmt.Errorf("config: SRAM-tag ways must be positive")
	}
	if c.Design == Tagless {
		// Only the tagless design reads these knobs, so only its
		// configuration is held to them.
		t := c.Tagless
		if t.Alpha <= 0 {
			return fmt.Errorf("config: tagless alpha must be positive")
		}
		blocks := c.CachePages()
		if sp := t.SuperpagePages; sp > 1 {
			if sp&(sp-1) != 0 {
				return fmt.Errorf("config: superpage size %d not a power of two", sp)
			}
			if blocks%sp != 0 {
				return fmt.Errorf("config: superpage size %d does not divide cache pages %d", sp, blocks)
			}
			if t.HotFilterThreshold > 0 {
				return fmt.Errorf("config: the hot-page filter operates at 4KB granularity and cannot combine with superpages")
			}
			blocks /= sp
		}
		if t.Alpha > blocks {
			return fmt.Errorf("config: tagless alpha %d exceeds the cache's %d blocks", t.Alpha, blocks)
		}
		if t.HotFilterThreshold == 1 {
			return fmt.Errorf("config: a hot-filter threshold of 1 promotes every page on its first access, which is the filter off; use 0")
		}
	}
	if c.PageWalkCycles <= 0 {
		return fmt.Errorf("config: page walk cycles must be positive")
	}
	if c.PWCHitCycles < 0 {
		return fmt.Errorf("config: PWC hit cycles must be >= 0, got %d", c.PWCHitCycles)
	}
	return nil
}

// Default returns the paper's evaluated machine (Tables 3 and 4): four
// 3 GHz out-of-order cores, a 1 GB in-package DRAM cache and 8 GB of
// off-package DDR3 DRAM, with the tagless design selected.
func Default() *SystemConfig {
	c := &SystemConfig{
		CPU: CPUConfig{Cores: 4, FreqGHz: 3.0, IssueWidth: 4, MSHRs: 8},
		// 32I/32D-entry L1 TLB and 512-entry L2 TLB per core.
		L1TLB: TLBConfig{Entries: 32, Ways: 4},
		L2TLB: TLBConfig{Entries: 512, Ways: 8},
		L1I:   CacheConfig{SizeBytes: 32 * KB, Ways: 4, LineBytes: BlockSize, LatencyCycle: 2},
		L1D:   CacheConfig{SizeBytes: 32 * KB, Ways: 4, LineBytes: BlockSize, LatencyCycle: 2},
		L2:    CacheConfig{SizeBytes: 2 * MB, Ways: 16, LineBytes: BlockSize, LatencyCycle: 6},
		InPkg: DRAMConfig{
			SizeBytes:    1 * GB,
			BusGHz:       1.6, // DDR 3.2 GHz
			Channels:     1,
			RanksPerChan: 2,
			BanksPerRank: 16,
			BusBits:      128,
			RowBytes:     PageSize,
			Microbanks:   8,
			Timing:       DRAMTiming{TRCDns: 8, TAAns: 10, TRASns: 22, TRPns: 14},
			Energy:       DRAMEnergy{IOPerBitPJ: 2.4, RDWRPerBitPJ: 4, ActPrePerRowNJ: 15},
		},
		OffPkg: DRAMConfig{
			SizeBytes:    8 * GB,
			BusGHz:       0.8, // DDR 1.6 GHz
			Channels:     1,
			RanksPerChan: 2,
			BanksPerRank: 64,
			BusBits:      64,
			RowBytes:     PageSize,
			Timing:       DRAMTiming{TRCDns: 14, TAAns: 14, TRASns: 35, TRPns: 14},
			Energy:       DRAMEnergy{IOPerBitPJ: 20, RDWRPerBitPJ: 13, ActPrePerRowNJ: 15},
		},
		Design:    Tagless,
		CacheSize: 1 * GB,
		SRAMTag:   SRAMTagConfig{Ways: 16},
		Tagless:   TaglessConfig{Alpha: 1, Policy: FIFO},
		// A 4-level walk whose PTEs mostly hit in the on-die caches.
		PageWalkCycles: 40,
		// Each upper level served by the MMU's page-walk caches costs two
		// cycles under the pwc and nested walk models.
		PWCHitCycles:   2,
		CorePowerWatts: 5.0,
	}
	return c
}

// Clone returns a deep copy (the struct contains no reference types).
func (c *SystemConfig) Clone() *SystemConfig {
	cp := *c
	return &cp
}
