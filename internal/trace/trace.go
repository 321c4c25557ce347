// Package trace generates synthetic memory-reference streams that stand in
// for the paper's SimPoint slices of SPEC CPU 2006 and PARSEC programs.
//
// The published results are driven by a handful of aggregate workload
// properties the paper calls out explicitly: misses per kilo-instruction
// (the programs were chosen as the 11 most memory-bound), memory footprint
// (multi-programmed mixes quadruple it), page reuse ratio (GemsFDTD and
// milc are low; streamcluster and facesim are high), spatial locality
// (blocks touched per page), and the fraction of singleton pages
// (swaptions and fluidanimate). Each Profile encodes those properties and
// the Generator emits a deterministic reference stream exhibiting them.
//
// Address streams use a working-set model: bursts of spatially adjacent
// blocks within a page, pages drawn either from a hot set (reuse) or from
// a cold sequence (first touches; sequential for streaming programs).
package trace

import (
	"fmt"
	"math"

	"taglessdram/internal/flat"
)

// Access is one memory reference in a trace.
type Access struct {
	VAddr uint64 // virtual byte address
	Write bool
	// Gap is the number of non-memory instructions retired before this
	// reference; it sets the program's memory intensity (MPKI).
	Gap int
	// LowReuse marks references to pages an offline profile would
	// classify as having fewer than the paper's 32-access threshold
	// (Section 5.4); the non-cacheable-page policy consumes it.
	LowReuse bool
	// Dependent marks a load on a serial dependence chain (pointer
	// chasing); its latency cannot be hidden by memory-level parallelism.
	Dependent bool
	// Shared marks a reference to an inter-process shared page (a shared
	// library or kernel page). Sections 3.5 and 6 discuss how the
	// tagless cache handles such pages: mark them non-cacheable, or
	// resolve them through a physical→cache alias table.
	Shared bool
}

// SingletonBase is the first virtual page of the unbounded region holding
// singleton (touch-once) pages. Real low-reuse pages are fresh addresses
// that never repeat, which is what makes them pollute page-granularity
// caches (the paper's over-fetching problem).
const SingletonBase = uint64(1) << 30

// SharedBase is the first virtual page of the inter-process shared region
// (mapped at the same virtual address in every process, like a prelinked
// shared library).
const SharedBase = uint64(1) << 32

// SharedRegionPages is the size of the shared region.
const SharedRegionPages = 256

// Profile describes one program's memory behaviour at full (paper) scale.
type Profile struct {
	Name           string
	MPKI           float64 // L2 misses per kilo-instruction
	FootprintPages int     // distinct 4KB pages touched over the run
	HotPages       int     // size of the actively reused working set
	HotFraction    float64 // probability a page visit targets the hot set
	SpatialBlocks  int     // distinct 64B blocks touched per page visit (1..64)
	BlockRepeats   int     // extra near-term re-references per block
	SingletonFrac  float64 // probability a cold page visit is a singleton
	WriteFraction  float64
	DependentFrac  float64 // fraction of references on serial dependence chains
	SharedFrac     float64 // probability a page visit targets the shared region
	Streaming      bool    // cold pages advance sequentially and re-stream
}

// Validate reports the first inconsistency in the profile. Every float
// check is written so that NaN fails it.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("trace: profile needs a name")
	case !(p.MPKI > 0) || math.IsInf(p.MPKI, 1):
		return fmt.Errorf("trace: %s: MPKI must be positive and finite", p.Name)
	case p.FootprintPages <= 0:
		return fmt.Errorf("trace: %s: footprint must be positive", p.Name)
	case p.HotPages <= 0 || p.HotPages > p.FootprintPages:
		return fmt.Errorf("trace: %s: hot pages %d out of range", p.Name, p.HotPages)
	case !unit(p.HotFraction):
		return fmt.Errorf("trace: %s: hot fraction out of [0,1]", p.Name)
	case p.SpatialBlocks < 1 || p.SpatialBlocks > 64:
		return fmt.Errorf("trace: %s: spatial blocks %d out of [1,64]", p.Name, p.SpatialBlocks)
	case p.BlockRepeats < 0:
		return fmt.Errorf("trace: %s: negative block repeats", p.Name)
	case !unit(p.SingletonFrac):
		return fmt.Errorf("trace: %s: singleton fraction out of [0,1]", p.Name)
	case !unit(p.WriteFraction):
		return fmt.Errorf("trace: %s: write fraction out of [0,1]", p.Name)
	case !unit(p.DependentFrac):
		return fmt.Errorf("trace: %s: dependent fraction out of [0,1]", p.Name)
	case !unit(p.SharedFrac):
		return fmt.Errorf("trace: %s: shared fraction out of [0,1]", p.Name)
	}
	return nil
}

// unit reports whether x lies in [0, 1]; NaN does not.
func unit(x float64) bool { return x >= 0 && x <= 1 }

// Scaled returns a copy with the footprint (and hot set) divided by
// 1<<shift, clamped to at least one page. Experiments shrink capacities
// and footprints together so capacity ratios match the paper while runs
// stay laptop-sized.
func (p Profile) Scaled(shift uint) Profile {
	s := p
	s.FootprintPages = max(1, p.FootprintPages>>shift)
	s.HotPages = max(1, min(p.HotPages>>shift, s.FootprintPages))
	return s
}

// gamma is splitmix64's state increment (also reused as a seed scrambler
// and the cold-permutation base elsewhere in this package).
const gamma = 0x9e3779b97f4a7c15

// rng is a splitmix64 generator: tiny, fast, and deterministic across runs.
type rng struct{ s uint64 }

// mix is splitmix64's output permutation: the value produced by a draw
// whose post-increment state is z. Exposed separately so the fast-forward
// path can evaluate individual draws at an offset from the current state
// without stepping through the ones in between.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += gamma
	return mix(r.s)
}

// threshold turns a probability p in [0, 1] into the integer a draw's top
// 53 bits are compared against: for every integer x < 2^53,
// float64(x)/2^53 < p holds exactly when x < threshold(p). Converting x
// and scaling by 2^53 are both exact, and for an integer x, x < T holds
// exactly when x < ⌈T⌉.
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// below draws once and reports whether the draw falls under t, a
// threshold: a Bernoulli trial of probability p for t = threshold(p).
func (r *rng) below(t uint64) bool {
	return r.next()>>11 < t
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// shared holds state a thread group shares: the cold-page cursor, the
// singleton cursor and the hot working set. Single-threaded workloads own
// a private instance.
type shared struct {
	profile  Profile
	hot      []uint64 // ring of recently used pages
	hotNext  int
	cold     uint64 // cold-page visit counter
	perm     uint64 // multiplier for the cold permutation (coprime)
	singNext uint64 // next singleton page index
	baseVPN  uint64
	lowReuse map[uint64]bool // pages the offline profile marks low-reuse
}

// thresholds are a profile's probabilities as draw thresholds.
type thresholds struct {
	shared, hot, singleton, write, dep uint64
}

// Generator emits one thread's reference stream.
type Generator struct {
	p      Profile
	thr    thresholds
	sh     *shared
	r      rng
	thread int

	// Burst state: the current page visit.
	page       uint64
	pageLow    bool
	pageShared bool
	blockIdx   int
	blocksCut  int // blocks remaining in this visit
	repeats    int // repeats remaining for the current block
	gapBase    int
}

// NewGenerator builds a single-threaded generator for the profile. The
// seed varies the stream; identical seeds give identical streams.
func NewGenerator(p Profile, seed uint64) *Generator {
	gs, err := NewThreadGroup(p, 1, seed)
	if err != nil {
		panic(err)
	}
	return gs[0]
}

// NewThreadGroup builds n generators sharing one address space and hot
// working set, modelling a multi-threaded program (threads share the page
// table, so shared pages cause no aliasing — Section 3.5).
func NewThreadGroup(p Profile, n int, seed uint64) ([]*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("trace: thread group needs at least one thread")
	}
	sh := &shared{
		profile:  p,
		hot:      make([]uint64, 0, p.HotPages),
		perm:     coprimeNear(uint64(p.FootprintPages)),
		baseVPN:  1 << 20, // keep VPNs away from zero for easier debugging
		lowReuse: make(map[uint64]bool),
	}
	thr := thresholds{
		shared:    threshold(p.SharedFrac),
		hot:       threshold(p.HotFraction),
		singleton: threshold(p.SingletonFrac),
		write:     threshold(p.WriteFraction),
		dep:       threshold(p.DependentFrac),
	}
	out := make([]*Generator, n)
	for i := range out {
		out[i] = &Generator{
			p:       p,
			thr:     thr,
			sh:      sh,
			r:       rng{s: seed*0x9e3779b97f4a7c15 + uint64(i)*0xdeadbeefcafef00d + 1},
			thread:  i,
			gapBase: gapFor(p),
		}
	}
	return out, nil
}

// gapFor derives the inter-block instruction gap from the target MPKI:
// one distinct block touch per 1000/MPKI instructions, of which the burst
// itself accounts for 1 + repeats references.
func gapFor(p Profile) int {
	per := 1000.0 / p.MPKI
	gap := int(per) - 1 - 2*p.BlockRepeats
	if gap < 0 {
		gap = 0
	}
	return gap
}

// coprimeNear returns an odd multiplier coprime with n, used to walk the
// footprint as a full permutation (every page touched once per wrap).
func coprimeNear(n uint64) uint64 {
	if n <= 2 {
		return 1
	}
	p := (0x9e3779b97f4a7c15 % n) | 1
	for gcd(p, n) != 1 {
		p += 2
		if p >= n {
			p = 1
		}
	}
	return p
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pickPage chooses the next page to visit and classifies it.
func (g *Generator) pickPage() (vpn uint64, lowReuse, shared bool) {
	sh := g.sh
	// Inter-process shared region (read-mostly, skewed towards its head
	// like the hot functions of a shared library). A zero fraction skips
	// the draw.
	if g.thr.shared > 0 && g.r.below(g.thr.shared) {
		a, b := g.r.intn(SharedRegionPages), g.r.intn(SharedRegionPages)
		if b < a {
			a = b
		}
		return SharedBase + uint64(a), false, true
	}
	if len(sh.hot) > 0 && g.r.below(g.thr.hot) {
		// Hot-set reuse. Favor recency: take the more recently inserted
		// of two uniform picks (a cheap Zipf-like skew).
		a, b := g.r.intn(len(sh.hot)), g.r.intn(len(sh.hot))
		idx := a
		if recency(sh, b) > recency(sh, a) {
			idx = b
		}
		return sh.hot[idx], false, false
	}
	// Singleton visits go to fresh, never-repeated pages: they are what
	// pollutes page-granularity caches (Section 3.5's over-fetching).
	if g.r.below(g.thr.singleton) {
		vpn = SingletonBase + sh.singNext
		sh.singNext++
		sh.lowReuse[vpn] = true
		return vpn, true, false
	}
	// Cold page within the footprint: sequential for streaming programs,
	// a full pseudo-random permutation otherwise — either way one wrap
	// covers the footprint exactly once.
	var idx uint64
	if g.p.Streaming {
		idx = sh.cold % uint64(g.p.FootprintPages)
	} else {
		idx = (sh.cold * sh.perm) % uint64(g.p.FootprintPages)
	}
	sh.cold++
	vpn = sh.baseVPN + idx
	sh.insertHot(vpn)
	return vpn, false, false
}

// recency scores a hot-ring index by insertion order distance.
func recency(sh *shared, i int) int {
	d := sh.hotNext - 1 - i
	if d < 0 {
		d += len(sh.hot)
	}
	return len(sh.hot) - d
}

func (sh *shared) insertHot(vpn uint64) {
	if len(sh.hot) < cap(sh.hot) {
		sh.hot = append(sh.hot, vpn)
		sh.hotNext = len(sh.hot) % cap(sh.hot)
		return
	}
	sh.hot[sh.hotNext] = vpn
	sh.hotNext = (sh.hotNext + 1) % len(sh.hot)
}

// Next returns the next reference in the stream. The stream is infinite;
// callers stop at their instruction budget.
func (g *Generator) Next() Access {
	gap := g.gapBase
	switch {
	case g.blocksCut > 0 && g.repeats > 0:
		// Near-term re-reference of the same block (absorbed by L1/L2).
		g.repeats--
		gap = 1
	case g.blocksCut > 1:
		// Advance to the next block of the burst.
		g.blocksCut--
		g.blockIdx++
		g.repeats = g.p.BlockRepeats
	default:
		// Start a new page visit.
		g.page, g.pageLow, g.pageShared = g.pickPage()
		g.blocksCut = g.p.SpatialBlocks
		if g.pageLow {
			g.blocksCut = 1
		}
		g.blockIdx = g.r.intn(64 - g.blocksCut + 1)
		g.repeats = g.p.BlockRepeats
	}
	// Each reference makes three draws: the address's low bits (a draw
	// mod 64, masked to an 8-byte word), write and dependent. Read the
	// state once and evaluate them side by side.
	d := uint64(gamma)
	s := g.r.s
	g.r.s = s + 3*d
	return Access{
		VAddr:     g.page<<12 | uint64(g.blockIdx)<<6 | mix(s+d)&0x38,
		Write:     mix(s+2*d)>>11 < g.thr.write && !g.pageShared, // shared pages are library text/ro-data
		Gap:       gap,
		LowReuse:  g.pageLow,
		Dependent: mix(s+3*d)>>11 < g.thr.dep,
		Shared:    g.pageShared,
	}
}

// Visit summarizes one whole page visit — the unit the functional
// fast-forward path consumes. It aggregates the Blocks·(1+BlockRepeats)
// references the per-reference path would emit one at a time, preserving
// everything warm cache/TLB state depends on: the page, the touched block
// range, per-block write bits and retired-instruction counts. The low
// address bits and dependence flags of individual references are dropped;
// caches are block-granular and the fast-forward path models no timing.
type Visit struct {
	Page       uint64 // virtual page number
	FirstBlock int    // first 64B block index touched (0..63)
	Blocks     int    // distinct blocks touched (1..64)
	Refs       uint64 // references the visit stands for
	Instr      uint64 // instructions retired across the visit (refs + gaps)
	LowReuse   bool
	Shared     bool
	// AnyWrite bit j is set when any reference to block FirstBlock+j is a
	// write (final L1 dirtiness); FirstWrite bit j when the block's first
	// touch is a write — the only reference of the block that reaches the
	// L2 on the per-reference path (repeats hit in L1).
	AnyWrite   uint64
	FirstWrite uint64
}

// AtVisitBoundary reports whether the next reference starts a new page
// visit. These are the only points where the per-reference (Next) and
// per-visit (NextVisit) streams may be interleaved.
func (g *Generator) AtVisitBoundary() bool {
	return g.blocksCut == 0 || (g.blocksCut == 1 && g.repeats == 0)
}

// NextVisit produces the next whole page visit, consuming exactly the
// random draws the equivalent run of Next calls would, so a stream can
// switch between per-reference and per-visit generation at any visit
// boundary and continue bit-identically. Calling it mid-visit panics.
func (g *Generator) NextVisit(v *Visit) {
	if !g.AtVisitBoundary() {
		panic("trace: NextVisit called mid-visit")
	}
	g.page, g.pageLow, g.pageShared = g.pickPage()
	blocks := g.p.SpatialBlocks
	if g.pageLow {
		blocks = 1
	}
	first := g.r.intn(64 - blocks + 1)
	reps := g.p.BlockRepeats
	refs := blocks * (1 + reps)

	v.Page = g.page
	v.FirstBlock = first
	v.Blocks = blocks
	v.Refs = uint64(refs)
	v.Instr = uint64(blocks) * uint64(g.gapBase+1+2*reps)
	v.LowReuse = g.pageLow
	v.Shared = g.pageShared
	v.AnyWrite, v.FirstWrite = 0, 0

	// Each reference consumes three draws in Next's order: address bits,
	// write, dependent. Only the write draw is state-relevant (shared
	// pages force writes off after drawing), so pull the write bits out of
	// the stream positionally and skip the visit's draws in one step. A
	// block's first reference sets its FirstWrite bit; once a block has
	// seen a write its other draws cannot change AnyWrite, so they are
	// skipped.
	d := uint64(gamma)
	if thr := g.thr.write; !g.pageShared && thr > 0 {
		w := g.r.s + 2*d // the visit's first write draw
		for b := 0; b < blocks; b++ {
			next := w + uint64(1+reps)*3*d // the next block's first write draw
			if mix(w)>>11 < thr {
				v.FirstWrite |= 1 << b
				v.AnyWrite |= 1 << b
			} else {
				for r := 0; r < reps; r++ {
					w += 3 * d
					if mix(w)>>11 < thr {
						v.AnyWrite |= 1 << b
						break
					}
				}
			}
			w = next
		}
	}
	g.r.s += uint64(refs) * 3 * d

	// Leave the generator exactly where the equivalent Next calls would:
	// parked on the visit's last block with no repeats left.
	g.blockIdx = first + blocks - 1
	g.blocksCut = 1
	g.repeats = 0
}

// Visit hands the generator's per-thread checkpoint state to c: its RNG
// position and the page visit in progress. The profile, gap and
// cold-permutation constants are construction inputs. A decoded visit
// must be one Next and NextVisit can leave behind: none at all (the
// zero state of a generator that has not started), or a page in the
// region its flags name (the shared region, the singleton region for a
// low-reuse page, else the footprint), a block within it, no more blocks
// left than fit after it or than the profile's visits touch (one on a
// low-reuse page), and no more repeats left than the profile's.
func (g *Generator) Visit(c *flat.Codec) {
	c.U64(&g.r.s)
	c.U64(&g.page)
	c.Bool(&g.pageLow)
	c.Bool(&g.pageShared)
	c.Int(&g.blockIdx)
	c.Int(&g.blocksCut)
	c.Int(&g.repeats)
	if !c.Decoding() {
		return
	}
	maxCut := g.p.SpatialBlocks
	if g.pageLow {
		maxCut = 1
	}
	lo, n := g.sh.baseVPN, uint64(g.p.FootprintPages)
	switch {
	case g.pageShared:
		lo, n = SharedBase, SharedRegionPages
	case g.pageLow:
		lo, n = SingletonBase, SharedBase-SingletonBase
	}
	switch {
	case g.blocksCut == 0 && (g.page != 0 || g.pageLow || g.pageShared || g.blockIdx != 0 || g.repeats != 0):
		c.Fail(fmt.Errorf("trace: no page visit in progress, yet page %#x, block %d, %d repeats", g.page, g.blockIdx, g.repeats))
	case g.blocksCut > 0 && (g.page < lo || g.page-lo >= n || g.pageLow && g.pageShared):
		c.Fail(fmt.Errorf("trace: page %#x outside the region of a visit with low reuse %v, shared %v", g.page, g.pageLow, g.pageShared))
	case g.blockIdx < 0 || g.blockIdx > 63:
		c.Fail(fmt.Errorf("trace: block %d outside a page", g.blockIdx))
	case g.blocksCut < 0 || g.blocksCut > maxCut || g.blockIdx+g.blocksCut > 64:
		c.Fail(fmt.Errorf("trace: %d blocks left from block %d of a visit of at most %d", g.blocksCut, g.blockIdx, maxCut))
	case g.repeats < 0 || g.repeats > g.p.BlockRepeats:
		c.Fail(fmt.Errorf("trace: %d repeats left of at most %d", g.repeats, g.p.BlockRepeats))
	}
}

// VisitGroup hands c the checkpoint state g's thread group shares: the
// hot ring and its cursor, the cold and singleton cursors and the
// low-reuse pages. Visiting through any member covers every thread of
// the group. A decoded ring must fit the profile's hot set, hold only
// footprint pages, and its cursor must fit the ring.
func (g *Generator) VisitGroup(c *flat.Codec) {
	sh := g.sh
	n := c.Count(len(sh.hot), 1)
	if c.Decoding() {
		if n > sh.profile.HotPages {
			c.Fail(fmt.Errorf("trace: %d hot pages exceed the profile's %d", n, sh.profile.HotPages))
			n = 0
		}
		sh.hot = make([]uint64, n, sh.profile.HotPages)
	}
	for i := range sh.hot {
		c.U64(&sh.hot[i])
		if vpn := sh.hot[i]; c.Decoding() && (vpn < sh.baseVPN || vpn-sh.baseVPN >= uint64(sh.profile.FootprintPages)) {
			c.Fail(fmt.Errorf("trace: hot page %#x outside the footprint", vpn))
		}
	}
	c.Int(&sh.hotNext)
	if sh.hotNext < 0 || sh.hotNext > len(sh.hot) || sh.hotNext == cap(sh.hot) {
		c.Fail(fmt.Errorf("trace: hot cursor %d outside a ring of %d", sh.hotNext, len(sh.hot)))
	}
	c.U64(&sh.cold)
	c.U64(&sh.singNext)
	flat.Map(c, &sh.lowReuse, (*flat.Codec).Bool)
}

// SharesGroup reports whether two generators belong to the same thread
// group (and therefore share the state VisitGroup covers).
func (g *Generator) SharesGroup(o *Generator) bool { return g.sh == o.sh }

// LowReusePages returns a snapshot of pages currently classified as
// low-reuse by the offline-profile oracle.
func (g *Generator) LowReusePages() map[uint64]bool {
	out := make(map[uint64]bool, len(g.sh.lowReuse))
	for k := range g.sh.lowReuse {
		out[k] = true
	}
	return out
}
