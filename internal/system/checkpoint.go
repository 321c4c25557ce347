package system

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"

	"taglessdram/internal/cache"
	"taglessdram/internal/config"
	"taglessdram/internal/flat"
	"taglessdram/internal/mmu"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// This file is the warm-state checkpoint seam: after an accurate warm-up
// the whole machine — cores, TLBs, on-die caches, page tables, trace
// positions, DRAM bank state, the tagless controller's GIPT, the
// organization's and the walk model's state — renders as one flat image
// (internal/flat), and an identically built fresh machine restores it
// and runs the measured phase as if the warm-up had just happened. One
// visit per component, and visit for the machine, lists the image's
// contents for both directions. Sweeps warm each (workload × warm-up)
// pair once and fan the state out across designs sharing that pair's
// configuration.
//
// The image starts with the machine's identity — the workload's trace
// digest and the resolved configuration — and a machine refuses a
// checkpoint whose identity differs. Every geometry the image describes
// (slot, line, bank and block counts) is checked against the machine's
// own, and every decoded index against what it indexes, rather than
// trusted.
//
// Checkpointing uses the Warmup/Measure pair instead of Run: Warmup
// quiesces the event kernel after the warm-up phase (in-flight fills and
// daemon evictions have no image), which Run does not, so the exactness
// contract is Warmup+Measure ≡ Warmup+Save+Load+Measure — byte-identical
// Results — rather than equivalence with Run.

// checkpointMagic starts every checkpoint. v7 is the flat image of state
// alone, with no window counter, whose TLBs, SRAM frames and Alloy TADs
// are cache arrays; the v6, v5, v4 and v3 flat images and the v2 gob
// stream before them are refused.
const checkpointMagic = "taglesssim-checkpoint-v7"

// Identity names what a checkpoint of a machine built from cfg and w is
// valid for: the workload's trace digest and the resolved configuration
// (SystemConfig is a pure value struct, so its %+v rendering is
// deterministic). A checkpoint carries both in its header, and sweeps
// key their warm states by them.
func Identity(cfg *config.SystemConfig, w Workload) (trace, machine string, err error) {
	trace, err = TraceDigest(w)
	return trace, fmt.Sprintf("%+v", *cfg), err
}

// Warmup runs the warm-up phase cycle-accurately and quiesces the event
// kernel, leaving the machine in the state SaveCheckpoint captures. Use
// the Warmup/Measure pair (not Run) when checkpointing.
func (m *Machine) Warmup(warmup uint64) error {
	if m.measuring {
		return fmt.Errorf("system: Warmup called after the measured phase began")
	}
	if err := m.warm(warmup); err != nil {
		return err
	}
	m.kernel.Run(0)
	return nil
}

// Measure runs the measured phase after Warmup, LoadCheckpoint or Run's
// own warm-up, and collects the Result.
func (m *Machine) Measure(measure uint64) (*Result, error) {
	target, err := m.beginMeasurement(measure)
	if err != nil {
		return nil, err
	}
	if err := m.advance(^uint64(0), target, false); err != nil {
		return nil, err
	}
	return m.collect(), nil
}

// SaveCheckpoint writes the machine's post-warmup state. The machine
// must be quiesced (Warmup leaves it so) and must not have begun the
// measured phase; every core's trace source must be a synthetic
// generator (its stream position is part of the state).
func (m *Machine) SaveCheckpoint(w io.Writer) error {
	if m.measuring {
		return fmt.Errorf("system: checkpoint must be taken before the measured phase")
	}
	m.kernel.Run(0)
	img, err := flat.Encode([]byte(checkpointMagic), m.visit)
	if err != nil {
		return fmt.Errorf("system: checkpoint: %w", err)
	}
	_, err = w.Write(img)
	return err
}

// LoadCheckpoint restores state SaveCheckpoint wrote into a freshly
// built machine. A checkpoint is refused unless it was saved for the
// same workload and configuration, and unless every count and index in
// it fits this machine. A machine whose load failed is partly restored
// and must be discarded.
func (m *Machine) LoadCheckpoint(rd io.Reader) error {
	if m.measuring || m.refs != 0 {
		return fmt.Errorf("system: checkpoint must be restored into a fresh machine")
	}
	data, err := io.ReadAll(rd)
	if err != nil {
		return fmt.Errorf("system: checkpoint: %w", err)
	}
	img, ok := bytes.CutPrefix(data, []byte(checkpointMagic))
	if !ok {
		return fmt.Errorf("system: not a %s stream", checkpointMagic)
	}
	if err := flat.Decode(img, m.visit); err != nil {
		return fmt.Errorf("system: checkpoint: %w", err)
	}
	return m.checkCacheAddresses()
}

// visit hands the machine's checkpoint state to c in image order. The
// structure — how many cores run, which tables and thread groups they
// share, the design, the walk model, the TLB topology and the
// context-switch and hot-filter modes — comes from the machine itself,
// which the identity header guarantees was built like the saving one.
func (m *Machine) visit(c *flat.Codec) {
	m.visitIdentity(c)
	c.U64(&m.warmedTo)
	c.U64(&m.refs)
	m.kernel.Visit(c)
	m.inPkg.Visit(c)
	m.offPkg.Visit(c)
	m.alloc.Visit(c)
	tables := m.distinctTables()
	c.Fixed(len(tables), "page tables")
	for _, pt := range tables {
		pt.Visit(c)
	}
	groups := m.threadGroups(c)
	c.Fixed(len(groups), "thread groups")
	for _, g := range groups {
		g.VisitGroup(c)
	}
	for _, cc := range m.cores {
		if cc.vgen == nil {
			continue
		}
		cc.cpu.Visit(c)
		if cc.cpu.Instructions < m.warmedTo {
			// Measure's target counts from warmedTo; a core short of it
			// would run the rest of the warm-up as measured work.
			c.Fail(fmt.Errorf("core %d retired %d instructions, short of the %d warmed to", cc.id, cc.cpu.Instructions, m.warmedTo))
		}
		cc.tlbs.L1.Visit(c)
		if m.tlbShared == nil {
			cc.tlbs.L2.Visit(c)
		}
		cc.l1.Visit(c)
		cc.l2.Visit(c)
		cc.vgen.Visit(c)
		if cc.hotCount != nil {
			flat.Map(c, &cc.hotCount, (*flat.Codec).U32)
		}
		if c.Decoding() {
			// The translation memo points into the tables the image
			// just replaced.
			cc.memoVPN, cc.memoPTE = 0, nil
		}
	}
	if m.tlbShared != nil {
		m.tlbShared.L2.Visit(c)
	}
	if m.ctx != nil {
		m.ctx.Visit(c)
	}
	if m.ctrl != nil {
		refs := pteRefs{tables: tables}
		m.ctrl.Visit(c, refs.visit)
	}
	m.org.Visit(c)
	m.walk.Visit(c)
	flat.Map(c, &m.sharedFrames, (*flat.Codec).U64)
}

// visitIdentity renders the identity header, or fails unless the
// image's matches the machine's.
func (m *Machine) visitIdentity(c *flat.Codec) {
	trace, machine, err := Identity(m.cfg, m.workload)
	if err != nil {
		c.Fail(err)
		return
	}
	for _, id := range []struct{ what, want string }{{"workload", trace}, {"configuration", machine}} {
		got := id.want
		c.Text(&got)
		if got != id.want && c.Err() == nil {
			c.Fail(fmt.Errorf("saved for a different %s", id.what))
		}
	}
}

// distinctTables lists the cores' page tables, deduplicated in core
// order (multi-threaded workloads share one table across cores).
// Construction is deterministic, so save and restore agree on indices.
func (m *Machine) distinctTables() []*mmu.PageTable {
	var out []*mmu.PageTable
	for _, cc := range m.cores {
		if !slices.Contains(out, cc.pt) {
			out = append(out, cc.pt)
		}
	}
	return out
}

// threadGroups lists one generator per thread group, in core order, and
// fails c when a core's trace source is not a synthetic generator: only
// a generator's stream position has an image.
func (m *Machine) threadGroups(c *flat.Codec) []*trace.Generator {
	var reps []*trace.Generator
	for _, cc := range m.cores {
		if cc.vgen == nil {
			c.Fail(fmt.Errorf("core %d trace source %T has no checkpoint image", cc.id, cc.gen))
			return nil
		}
		if !slices.ContainsFunc(reps, cc.vgen.SharesGroup) {
			reps = append(reps, cc.vgen)
		}
	}
	return reps
}

// pteRefs carries PTE pointers across a checkpoint as (table, vpn)
// references: the table's index in the machine's table list and the vpn
// the entry is keyed under (the region base for superpages). A decoded
// reference must name an entry of the restored tables.
type pteRefs struct {
	tables []*mmu.PageTable
	rev    map[*mmu.PTE]pteRef // built on first render
}

type pteRef struct {
	table int
	vpn   uint64
}

func (r *pteRefs) visit(c *flat.Codec, p **mmu.PTE) {
	var ref pteRef
	if !c.Decoding() {
		if r.rev == nil {
			r.rev = make(map[*mmu.PTE]pteRef)
			for ti, pt := range r.tables {
				pt.Range(func(vpn uint64, pte *mmu.PTE) bool {
					r.rev[pte] = pteRef{ti, vpn}
					return true
				})
			}
		}
		var ok bool
		if ref, ok = r.rev[*p]; !ok {
			c.Fail(errors.New("the GIPT references a PTE outside the page tables"))
			return
		}
	}
	c.Int(&ref.table)
	c.U64(&ref.vpn)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if ref.table < 0 || ref.table >= len(r.tables) {
		c.Fail(fmt.Errorf("PTE reference to table %d of %d", ref.table, len(r.tables)))
		return
	}
	pte, ok := r.tables[ref.table].Lookup(ref.vpn)
	if !ok {
		c.Fail(fmt.Errorf("PTE reference to unmapped page %d of table %d", ref.vpn, ref.table))
		return
	}
	*p = pte
}

// checkCacheAddresses refuses a restored tagless machine whose page
// tables, TLBs or on-die caches name a cache block the controller does
// not have: the access path indexes the GIPT by those addresses
// unchecked.
func (m *Machine) checkCacheAddresses() error {
	if m.ctrl == nil {
		return nil
	}
	blocks := uint64(m.ctrl.GIPT().Blocks())
	var bad error
	check := func(ca uint64) {
		if ca >= blocks && bad == nil {
			bad = fmt.Errorf("system: checkpoint names cache block %d, beyond the %d blocks", ca, blocks)
		}
	}
	for _, pt := range m.distinctTables() {
		pt.Range(func(_ uint64, pte *mmu.PTE) bool {
			if pte.VC {
				check(pte.Frame)
			}
			return bad == nil
		})
	}
	for _, cc := range m.cores {
		for _, t := range []*tlb.TLB{cc.tlbs.L1, cc.tlbs.L2} {
			t.Each(func(_ uint64, e tlb.Entry) {
				if !e.NC {
					check(e.Frame)
				}
			})
		}
		for _, l := range []*cache.Cache{cc.l1, cc.l2} {
			l.Each(func(_, addr uint64) {
				if addr&paBit == 0 {
					check(addr >> m.caShift)
				}
			})
		}
	}
	return bad
}
