// Package tlb implements set-associative translation lookaside buffers and
// the per-core two-level hierarchy used in the paper (32-entry L1, 512-entry
// L2). The same hardware serves as a conventional TLB (virtual→physical) or
// as the paper's cache-map TLB (cTLB, virtual→cache): an Entry's Frame is
// interpreted by the owner, and the NC bit marks non-cacheable pages whose
// frames remain physical (Section 3.2).
package tlb

import (
	"fmt"

	"taglessdram/internal/config"
	"taglessdram/internal/flat"
)

// Entry is one translation. For a cTLB with NC clear, Frame is the cache
// block number; with NC set (or in a conventional TLB) it is the physical
// page number.
type Entry struct {
	Frame uint64
	NC    bool
}

// invalidVPN marks an empty slot. Real vpns (including superpage lookup
// keys, which set bit 61) stay below 2^62, so the sentinel cannot collide.
const invalidVPN = ^uint64(0)

// ASID tagging. Under the shared-L2 topology every key a hierarchy
// touches carries its owner's address-space tag in bits 48–59, well above
// any real vpn (traces stay below 2^33) and below the superpage key bit
// (61). ForeignBit marks synthetic foreign-tenant entries injected to
// model context-switch pressure; it can never collide with a workload
// key. A zero tag (the private topology) leaves keys untouched.
const (
	// ASIDTagShift is the bit position of the tag field.
	ASIDTagShift = 48
	// asidTagMask covers the 12-bit tag field.
	asidTagMask = uint64(0xFFF) << ASIDTagShift
	// ForeignBit marks injected foreign-tenant entries.
	ForeignBit = uint64(1) << 60
)

// ASIDTag returns the key tag for an address-space ID. Tags are asid+1 so
// that tag zero stays reserved for the untagged private topology.
func ASIDTag(asid int) uint64 { return uint64(asid+1) << ASIDTagShift }

// TLB is one set-associative translation buffer with LRU replacement. Slots
// are stored structure-of-arrays so the lookup path scans only the set's
// vpn words; invalid slots carry a sentinel vpn.
type TLB struct {
	cfg    config.TLBConfig
	ways   int
	nsets  int
	vpns   []uint64 // set-major: vpns[si*ways+w]
	frames []uint64
	nc     []bool
	used   []uint64
	tick   uint64
	mask   uint64

	// Same-page memo: lastIdx is the slot that served the previous hit. A
	// repeat lookup of the same vpn skips the set scan. The memo is only
	// trusted when vpns[lastIdx] still holds that vpn, so evictions and
	// invalidations cannot make it lie.
	lastVPN uint64
	lastIdx int
}

// New constructs a TLB from its configuration.
func New(cfg config.TLBConfig) *TLB {
	nsets := cfg.Sets()
	if nsets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("tlb: bad geometry %+v", cfg))
	}
	n := nsets * cfg.Ways
	t := &TLB{
		cfg:    cfg,
		ways:   cfg.Ways,
		nsets:  nsets,
		vpns:   make([]uint64, n),
		frames: make([]uint64, n),
		nc:     make([]bool, n),
		used:   make([]uint64, n),
	}
	for i := range t.vpns {
		t.vpns[i] = invalidVPN
	}
	t.mask = uint64(nsets - 1)
	if nsets&(nsets-1) != 0 {
		t.mask = 0 // fall back to modulo for non-power-of-two set counts
	}
	return t
}

// Config returns the TLB configuration.
func (t *TLB) Config() config.TLBConfig { return t.cfg }

func (t *TLB) setBase(vpn uint64) int {
	if t.mask != 0 {
		return int(vpn&t.mask) * t.ways
	}
	return int(vpn%uint64(t.nsets)) * t.ways
}

// Lookup searches for vpn, updating LRU state on a hit.
func (t *TLB) Lookup(vpn uint64) (Entry, bool) {
	t.tick++
	if vpn == t.lastVPN && t.vpns[t.lastIdx] == vpn {
		i := t.lastIdx
		t.used[i] = t.tick
		return Entry{Frame: t.frames[i], NC: t.nc[i]}, true
	}
	base := t.setBase(vpn)
	for w, v := range t.vpns[base : base+t.ways] {
		if v == vpn {
			i := base + w
			t.lastVPN, t.lastIdx = vpn, i
			t.used[i] = t.tick
			return Entry{Frame: t.frames[i], NC: t.nc[i]}, true
		}
	}
	return Entry{}, false
}

// Peek reports presence without perturbing LRU state.
func (t *TLB) Peek(vpn uint64) (Entry, bool) {
	base := t.setBase(vpn)
	for w, v := range t.vpns[base : base+t.ways] {
		if v == vpn {
			i := base + w
			return Entry{Frame: t.frames[i], NC: t.nc[i]}, true
		}
	}
	return Entry{}, false
}

// Insert adds (or refreshes) a translation and returns any displaced
// translation. Inserting an existing vpn overwrites it with no eviction.
func (t *TLB) Insert(vpn uint64, e Entry) (evictedVPN uint64, evicted Entry, didEvict bool) {
	t.tick++
	base := t.setBase(vpn)
	vi := -1
	for w, v := range t.vpns[base : base+t.ways] {
		if v == vpn {
			i := base + w
			t.frames[i] = e.Frame
			t.nc[i] = e.NC
			t.used[i] = t.tick
			return 0, Entry{}, false
		}
		if v == invalidVPN && vi == -1 {
			vi = w
		}
	}
	if vi == -1 {
		vi = 0
		for w := 1; w < t.ways; w++ {
			if t.used[base+w] < t.used[base+vi] {
				vi = w
			}
		}
		i := base + vi
		evictedVPN, evicted, didEvict = t.vpns[i], Entry{Frame: t.frames[i], NC: t.nc[i]}, true
	}
	i := base + vi
	t.vpns[i] = vpn
	t.frames[i] = e.Frame
	t.nc[i] = e.NC
	t.used[i] = t.tick
	return evictedVPN, evicted, didEvict
}

// Invalidate drops vpn if present and reports whether it was.
func (t *TLB) Invalidate(vpn uint64) bool {
	base := t.setBase(vpn)
	for w, v := range t.vpns[base : base+t.ways] {
		if v == vpn {
			i := base + w
			t.vpns[i] = invalidVPN
			t.frames[i] = 0
			t.nc[i] = false
			t.used[i] = 0
			return true
		}
	}
	return false
}

// Update rewrites the entry for vpn in place (e.g. remapping CA→PA during a
// shootdown) and reports whether vpn was present.
func (t *TLB) Update(vpn uint64, e Entry) bool {
	base := t.setBase(vpn)
	for w, v := range t.vpns[base : base+t.ways] {
		if v == vpn {
			i := base + w
			t.frames[i] = e.Frame
			t.nc[i] = e.NC
			return true
		}
	}
	return false
}

// Each calls fn for every valid entry, in slot order. The callback must
// not mutate the TLB.
func (t *TLB) Each(fn func(key uint64, e Entry)) {
	for i, v := range t.vpns {
		if v != invalidVPN {
			fn(v, Entry{Frame: t.frames[i], NC: t.nc[i]})
		}
	}
}

// Occupancy returns the number of valid entries.
func (t *TLB) Occupancy() int {
	n := 0
	for _, v := range t.vpns {
		if v != invalidVPN {
			n++
		}
	}
	return n
}

// Flush invalidates everything.
func (t *TLB) Flush() {
	for i := range t.vpns {
		t.vpns[i] = invalidVPN
		t.frames[i] = 0
		t.nc[i] = false
		t.used[i] = 0
	}
}

// Visit hands the TLB's checkpoint state to c: every slot's key, frame,
// NC bit and recency stamp, the LRU clock and the same-page memo. Keys
// cross one up, so an empty slot's all-ones sentinel is a single zero
// byte. Geometry comes from construction: the slot count must match, and
// a decoded memo slot must exist.
func (t *TLB) Visit(c *flat.Codec) {
	c.Fixed(len(t.vpns), "TLB slots")
	for i := range t.vpns {
		v := t.vpns[i] + 1
		c.U64(&v)
		t.vpns[i] = v - 1
		c.U64(&t.frames[i])
		c.Bool(&t.nc[i])
		c.U64(&t.used[i])
	}
	c.U64(&t.tick)
	c.U64(&t.lastVPN)
	c.Int(&t.lastIdx)
	if t.lastIdx < 0 || t.lastIdx >= len(t.vpns) {
		c.Fail(fmt.Errorf("tlb: memo slot %d outside %d slots", t.lastIdx, len(t.vpns)))
	}
}

// Hierarchy is one core's L1+L2 TLB pair, maintained inclusively: every L1
// entry is also in L2, so a page leaves the core's TLB reach exactly when
// it leaves L2. OnEvict (if set) fires at that moment — the tagless cache
// uses it to clear the page's TLB-residence bit in the GIPT (Section 3.2).
//
// Under the shared topology (NewSharedGroup) L2 is one TLB shared by all
// member hierarchies and every key is ASID-tagged; the simulator's
// single-threaded kernel is what makes the shared level safe without
// locks. A private hierarchy's tag is zero, so tagging is an identity and
// its behavior is bit-identical to the pre-topology code.
type Hierarchy struct {
	L1, L2  *TLB
	OnEvict func(vpn uint64, e Entry)

	asidTag uint64
	group   *SharedGroup
}

// NewHierarchy builds a private two-level TLB for one core.
func NewHierarchy(l1, l2 config.TLBConfig) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: New(l2)}
}

// SharedGroup is the shared-L2 topology: one L2 serving every core's L1.
// Cross-core effects — an insert by one core displacing another core's
// translation, a shootdown reaching every L1 — are what the private
// topology structurally cannot express.
type SharedGroup struct {
	L2      *TLB
	members []*Hierarchy
	// Invalidations counts L1 entries of one core killed by shared-L2
	// activity of a different core (the topology's invalidation traffic).
	Invalidations uint64
}

// NewSharedGroup builds per-core hierarchies whose L2 level is one shared
// TLB. Each member still exposes the L2 through its own Hierarchy, so
// code that walks every core's TLBs works unchanged (the checkpoint
// visits the shared L2 once).
func NewSharedGroup(l1, l2 config.TLBConfig, cores int) (*SharedGroup, []*Hierarchy) {
	g := &SharedGroup{L2: New(l2)}
	hs := make([]*Hierarchy, cores)
	for i := range hs {
		h := &Hierarchy{L1: New(l1), L2: g.L2, group: g}
		g.members = append(g.members, h)
		hs[i] = h
	}
	return g, hs
}

// SetASID retags the hierarchy's address space. Keys the core touches
// from now on carry the new tag.
func (h *Hierarchy) SetASID(asid int) { h.asidTag = ASIDTag(asid) }

// OwnsKey reports whether a (tagged) key belongs to this hierarchy's
// address space. A private hierarchy owns everything it holds.
func (h *Hierarchy) OwnsKey(key uint64) bool {
	return h.asidTag == 0 || key&asidTagMask == h.asidTag
}

// dropL1s removes key from every L1 that can hold it, counting an
// invalidation for each member other than self whose L1 actually held it.
func (h *Hierarchy) dropL1s(key uint64) {
	if h.group == nil {
		h.L1.Invalidate(key)
		return
	}
	for _, m := range h.group.members {
		if m.L1.Invalidate(key) && m != h {
			h.group.Invalidations++
		}
	}
}

// notifyEvict announces that key left the L2 level — and with it every
// core's reach — so each member's OnEvict can release per-core state
// (GIPT residence bits). Members that never held the translation clear
// an already-clear bit, which is idempotent.
func (h *Hierarchy) notifyEvict(key uint64, e Entry) {
	if h.group == nil {
		if h.OnEvict != nil {
			h.OnEvict(key, e)
		}
		return
	}
	for _, m := range h.group.members {
		if m.OnEvict != nil {
			m.OnEvict(key, e)
		}
	}
}

// Level identifies where a lookup hit.
type Level int

// Lookup levels.
const (
	MissAll Level = iota // not in any level
	InL1
	InL2
)

// Lookup searches L1 then L2. An L2 hit refills L1. Keys are tagged with
// the hierarchy's ASID (identity for the private topology); OR keeps
// already-tagged keys stable, so callers may pass either form.
func (h *Hierarchy) Lookup(vpn uint64) (Entry, Level) {
	key := vpn | h.asidTag
	if e, ok := h.L1.Lookup(key); ok {
		return e, InL1
	}
	if e, ok := h.L2.Lookup(key); ok {
		// Refill L1; inclusivity means the L1 victim is still in L2.
		h.L1.Insert(key, e)
		return e, InL2
	}
	return Entry{}, MissAll
}

// Insert installs a translation into both levels, firing OnEvict for any
// translation that leaves L2 (and with it, every core's reach).
func (h *Hierarchy) Insert(vpn uint64, e Entry) {
	key := vpn | h.asidTag
	if evpn, ee, ok := h.L2.Insert(key, e); ok {
		h.dropL1s(evpn) // preserve inclusion
		h.notifyEvict(evpn, ee)
	}
	h.L1.Insert(key, e)
}

// Contains reports whether vpn is resident anywhere in the hierarchy
// without perturbing state.
func (h *Hierarchy) Contains(vpn uint64) bool {
	key := vpn | h.asidTag
	if _, ok := h.L1.Peek(key); ok {
		return true
	}
	_, ok := h.L2.Peek(key)
	return ok
}

// Invalidate performs a shootdown of vpn from both levels and reports
// whether it was present. OnEvict fires if it was — under the shared
// topology on every member, since the translation leaves all of them at
// once.
func (h *Hierarchy) Invalidate(vpn uint64) bool {
	key := vpn | h.asidTag
	e, inL2 := h.L2.Peek(key)
	h.dropL1s(key)
	if inL2 {
		h.L2.Invalidate(key)
		h.notifyEvict(key, e)
	}
	return inL2
}

// Update rewrites vpn's entry in both levels (returns whether present in L2).
func (h *Hierarchy) Update(vpn uint64, e Entry) bool {
	key := vpn | h.asidTag
	h.L1.Update(key, e)
	return h.L2.Update(key, e)
}

// Flush clears both levels without firing OnEvict (power-on reset).
func (h *Hierarchy) Flush() {
	h.L1.Flush()
	h.L2.Flush()
}
