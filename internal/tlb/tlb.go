// Package tlb implements set-associative translation lookaside buffers and
// the per-core two-level hierarchy used in the paper (32-entry L1, 512-entry
// L2). The same hardware serves as a conventional TLB (virtual→physical) or
// as the paper's cache-map TLB (cTLB, virtual→cache): an Entry's Frame is
// interpreted by the owner, and the NC bit marks non-cacheable pages whose
// frames remain physical (Section 3.2).
package tlb

import (
	"fmt"

	"taglessdram/internal/cache"
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

// TLB is one set-associative translation buffer with LRU replacement:
// a cache.Cache of one-byte lines, so a key is a line address, holds the
// keys and their recency, and each line's entry sits beside it, indexed
// by the line the array reports. An empty line's entry is zero. Keys
// (superpage lookup keys set bit 61) stay below 2^62, so none collides
// with the array's all-ones empty tag.
type TLB struct {
	keys    cache.Cache // by value: a lookup reaches the array without a pointer hop
	entries []Entry
}

// New constructs a TLB from its configuration.
func New(cfg config.TLBConfig) *TLB {
	nsets := cfg.Sets()
	if nsets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("tlb: bad geometry %+v", cfg))
	}
	n := nsets * cfg.Ways
	return &TLB{
		keys:    *cache.New(config.CacheConfig{SizeBytes: int64(n), Ways: cfg.Ways, LineBytes: 1}),
		entries: make([]Entry, n),
	}
}

// Lookup searches for vpn, updating LRU state on a hit.
func (t *TLB) Lookup(vpn uint64) (Entry, bool) {
	line, ok := t.keys.Touch(vpn)
	if !ok {
		return Entry{}, false
	}
	return t.entries[line], true
}

// Peek reports presence without perturbing LRU state.
func (t *TLB) Peek(vpn uint64) (Entry, bool) {
	line, ok := t.keys.Lookup(vpn)
	if !ok {
		return Entry{}, false
	}
	return t.entries[line], true
}

// Insert adds (or refreshes) a translation and returns any displaced
// translation. Inserting an existing vpn overwrites it with no eviction.
func (t *TLB) Insert(vpn uint64, e Entry) (evictedVPN uint64, evicted Entry, didEvict bool) {
	_, victim, didEvict := t.keys.Access(vpn, false)
	line := t.keys.Line()
	if didEvict {
		evictedVPN, evicted = victim.Addr, t.entries[line]
	}
	t.entries[line] = e
	return evictedVPN, evicted, didEvict
}

// Invalidate drops vpn if present and reports whether it was.
func (t *TLB) Invalidate(vpn uint64) bool {
	line, ok := t.keys.Lookup(vpn)
	if ok {
		t.keys.Invalidate(vpn)
		t.entries[line] = Entry{}
	}
	return ok
}

// Each calls fn for every valid entry, in line order. The callback must
// not mutate the TLB.
func (t *TLB) Each(fn func(key uint64, e Entry)) {
	t.keys.Each(func(line, key uint64) { fn(key, t.entries[line]) })
}

// Visit hands the TLB's checkpoint state to c: the key array's (which
// checks a decoded image as it checks any cache.Cache's), then each
// valid line's frame and NC bit in line order. Empty lines carry no
// entry, so a decoder clears the entries first.
func (t *TLB) Visit(c *flat.Codec) {
	t.keys.Visit(c)
	if c.Decoding() {
		clear(t.entries)
	}
	t.keys.Each(func(line, _ uint64) {
		c.U64(&t.entries[line].Frame)
		c.Bool(&t.entries[line].NC)
	})
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
