package system

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"taglessdram/internal/cache"
	"taglessdram/internal/core"
	"taglessdram/internal/cpu"
	"taglessdram/internal/dram"
	"taglessdram/internal/mmu"
	"taglessdram/internal/org"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
	"taglessdram/internal/trace"
)

// This file is the warm-state checkpoint seam: after an accurate warm-up
// the whole machine — cores, TLBs, on-die caches, page tables, trace
// positions, DRAM bank state, the tagless controller's GIPT, the
// organization's design state — serializes to one gob stream, and an
// identically-configured fresh machine restores it and runs the measured
// phase as if the warm-up had just happened. Sweeps warm each (workload ×
// warm-up) pair once and fan the state out across designs sharing that
// pair's configuration.
//
// Checkpointing uses the Warmup/Measure pair instead of Run: Warmup
// quiesces the event kernel after the warm-up phase (in-flight fills and
// daemon evictions have no serialized form), which Run does not, so the
// exactness contract is Warmup+Measure ≡ Warmup+Save+Load+Measure —
// byte-identical Results — rather than equivalence with Run.

// checkpointMagic guards against feeding arbitrary gobs to LoadCheckpoint.
// v2: per-core PTE-cache state replaced by the machine-level walk-model
// snapshot, plus context-switch scheduler state.
const checkpointMagic = "taglesssim-checkpoint-v2"

type hotPair struct {
	VPN   uint64
	Count uint32
}

type sharedPair struct {
	VPN, PPN uint64
}

// coreCheckpoint is one core's serialized private state.
type coreCheckpoint struct {
	Active   bool
	Table    int // index into checkpointState.Tables
	Group    int // index into checkpointState.SharedGens
	CPU      cpu.State
	TLB1     tlb.State
	TLB2     tlb.State
	L1       cache.State
	L2       cache.State
	Gen      trace.GenState
	HotCount []hotPair // sorted by VPN
}

// checkpointState is the machine's complete serialized state.
type checkpointState struct {
	Magic      string
	WarmedTo   uint64
	Refs       uint64
	Kernel     sim.KernelState
	InPkg      dram.DeviceState
	OffPkg     dram.DeviceState
	Alloc      mmu.AllocState
	Tables     []mmu.TableState
	Shared     []sharedPair // machine-wide shared-frame map, sorted by VPN
	GIPTCursor uint64
	SharedGens []trace.SharedState // one per generator thread group
	Cores      []coreCheckpoint
	Ctrl       *core.CtrlState // tagless controller, nil otherwise
	Org        []byte          // org.Snapshotter payload
	HasOrg     bool
	// VMWalk names the walk model that produced VM; restoring into a
	// machine with a different model is an error.
	VMWalk string
	VM     []byte
	// CtxCount/CtxRNG carry the context-switch scheduler, empty when
	// context switching is disabled.
	CtxCount []uint64
	CtxRNG   []uint64
}

// Warmup runs the warm-up phase cycle-accurately and quiesces the event
// kernel, leaving the machine in the serializable state SaveCheckpoint
// captures. Use the Warmup/Measure pair (not Run) when checkpointing.
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
	if measure == 0 {
		return nil, fmt.Errorf("system: measure phase must be positive")
	}
	target := m.warmedTo + measure
	if target < m.warmedTo {
		return nil, fmt.Errorf("system: warmup+measure overflows uint64 (warmup=%d measure=%d)", m.warmedTo, measure)
	}
	m.beginMeasurement()
	if err := m.runPhase(target); err != nil {
		return nil, err
	}
	// Let in-flight accesses and background evictions finish.
	for _, cc := range m.cores {
		cc.cpu.Drain()
	}
	m.kernel.Run(0)
	return m.collect(), nil
}

// distinctTables lists the active cores' page tables, deduplicated in
// core order (multi-threaded workloads share one table across cores).
// Construction is deterministic, so save and restore agree on indices.
func (m *Machine) distinctTables() []*mmu.PageTable {
	var out []*mmu.PageTable
	for _, cc := range m.cores {
		if !cc.active || cc.pt == nil {
			continue
		}
		dup := false
		for _, pt := range out {
			if pt == cc.pt {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cc.pt)
		}
	}
	return out
}

// tableIndex returns pt's position in the distinct-table list.
func tableIndex(tables []*mmu.PageTable, pt *mmu.PageTable) int {
	for i, t := range tables {
		if t == pt {
			return i
		}
	}
	return -1
}

// buildCodec maps PTE pointers to stable (table, vpn) refs and back,
// using a reverse index built from the tables' current contents.
func buildCodec(tables []*mmu.PageTable) *core.PTECodec {
	rev := make(map[*mmu.PTE]core.PTERef)
	for ti, pt := range tables {
		ti := ti
		pt.Range(func(vpn uint64, pte *mmu.PTE) bool {
			rev[pte] = core.PTERef{Table: ti, VPN: vpn}
			return true
		})
	}
	return &core.PTECodec{
		Encode: func(p *mmu.PTE) (core.PTERef, bool) {
			r, ok := rev[p]
			return r, ok
		},
		Decode: func(r core.PTERef) *mmu.PTE {
			if r.Table < 0 || r.Table >= len(tables) {
				return nil
			}
			pte, ok := tables[r.Table].Lookup(r.VPN)
			if !ok {
				return nil
			}
			return pte
		},
	}
}

// SaveCheckpoint serializes the machine's post-warmup state. The machine
// must be quiesced (Warmup leaves it so) and must not have begun the
// measured phase; every core's trace source must be a synthetic
// generator (its stream position is part of the state).
func (m *Machine) SaveCheckpoint(w io.Writer) error {
	if m.measuring {
		return fmt.Errorf("system: checkpoint must be taken before the measured phase")
	}
	m.kernel.Run(0)
	kst, err := m.kernel.State()
	if err != nil {
		return fmt.Errorf("system: checkpoint: %w", err)
	}
	if m.ctrl != nil && !m.ctrl.Quiesced() {
		return fmt.Errorf("system: checkpoint: controller not quiesced")
	}

	tables := m.distinctTables()
	st := checkpointState{
		Magic:      checkpointMagic,
		WarmedTo:   m.warmedTo,
		Refs:       m.refs,
		Kernel:     kst,
		InPkg:      m.inPkg.State(),
		OffPkg:     m.offPkg.State(),
		Alloc:      m.alloc.State(),
		GIPTCursor: m.giptCursor,
	}
	for _, pt := range tables {
		st.Tables = append(st.Tables, pt.State())
	}
	for vpn, ppn := range m.sharedFrames {
		st.Shared = append(st.Shared, sharedPair{VPN: vpn, PPN: ppn})
	}
	sort.Slice(st.Shared, func(i, j int) bool { return st.Shared[i].VPN < st.Shared[j].VPN })

	// One shared-generator state per thread group, keyed by the first
	// core of the group.
	var groupReps []*trace.Generator
	groupOf := func(g *trace.Generator) int {
		for i, rep := range groupReps {
			if g.SharesGroup(rep) {
				return i
			}
		}
		groupReps = append(groupReps, g)
		return len(groupReps) - 1
	}

	for _, cc := range m.cores {
		ck := coreCheckpoint{Active: cc.active, Table: -1, Group: -1}
		if cc.active {
			if cc.vgen == nil {
				return fmt.Errorf("system: checkpoint: core %d trace source %T is not a synthetic generator", cc.id, cc.gen)
			}
			ck.Table = tableIndex(tables, cc.pt)
			ck.Group = groupOf(cc.vgen)
			ck.CPU = cc.cpu.State()
			ck.TLB1 = cc.tlbs.L1.State()
			ck.TLB2 = cc.tlbs.L2.State()
			ck.L1 = cc.l1.State()
			ck.L2 = cc.l2.State()
			ck.Gen = cc.vgen.State()
			for vpn, n := range cc.hotCount {
				ck.HotCount = append(ck.HotCount, hotPair{VPN: vpn, Count: n})
			}
			sort.Slice(ck.HotCount, func(i, j int) bool { return ck.HotCount[i].VPN < ck.HotCount[j].VPN })
		}
		st.Cores = append(st.Cores, ck)
	}
	for _, rep := range groupReps {
		st.SharedGens = append(st.SharedGens, rep.SharedState())
	}

	if m.ctrl != nil {
		cs, err := m.ctrl.Snapshot(buildCodec(tables))
		if err != nil {
			return fmt.Errorf("system: checkpoint: %w", err)
		}
		st.Ctrl = cs
	}
	if snap, ok := m.org.(org.Snapshotter); ok {
		data, err := snap.SnapshotOrg()
		if err != nil {
			return fmt.Errorf("system: checkpoint: %w", err)
		}
		st.Org, st.HasOrg = data, true
	}
	st.VMWalk = m.walk.Name()
	vmData, err := m.walk.Snapshot()
	if err != nil {
		return fmt.Errorf("system: checkpoint: %w", err)
	}
	st.VM = vmData
	if m.ctx != nil {
		st.CtxCount = append([]uint64(nil), m.ctx.Count...)
		st.CtxRNG = append([]uint64(nil), m.ctx.RNG...)
	}
	return gob.NewEncoder(w).Encode(&st)
}

// LoadCheckpoint restores state saved by SaveCheckpoint into a freshly
// built machine with the identical configuration and workload. Geometry
// mismatches (different cache sizes, core counts, designs) are errors.
func (m *Machine) LoadCheckpoint(rd io.Reader) (err error) {
	// The package-level SetState seams panic on geometry mismatches;
	// surface those as errors so a stale checkpoint file cannot crash a
	// sweep.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("system: checkpoint restore: %v", p)
		}
	}()

	var st checkpointState
	if err := gob.NewDecoder(rd).Decode(&st); err != nil {
		return fmt.Errorf("system: checkpoint decode: %w", err)
	}
	if st.Magic != checkpointMagic {
		return fmt.Errorf("system: not a checkpoint stream (magic %q)", st.Magic)
	}
	if m.measuring || m.refs != 0 {
		return fmt.Errorf("system: checkpoint must be restored into a fresh machine")
	}
	if len(st.Cores) != len(m.cores) {
		return fmt.Errorf("system: checkpoint has %d cores, machine has %d", len(st.Cores), len(m.cores))
	}
	tables := m.distinctTables()
	if len(st.Tables) != len(tables) {
		return fmt.Errorf("system: checkpoint has %d page tables, machine has %d", len(st.Tables), len(tables))
	}
	if (st.Ctrl != nil) != (m.ctrl != nil) {
		return fmt.Errorf("system: checkpoint design does not match machine design %v", m.cfg.Design)
	}
	for i, cc := range m.cores {
		if st.Cores[i].Active != cc.active {
			return fmt.Errorf("system: checkpoint core %d active=%v, machine active=%v", i, st.Cores[i].Active, cc.active)
		}
	}

	if err := m.kernel.SetState(st.Kernel); err != nil {
		return fmt.Errorf("system: checkpoint restore: %w", err)
	}
	m.inPkg.SetState(st.InPkg)
	m.offPkg.SetState(st.OffPkg)
	m.alloc.SetState(st.Alloc)
	for i, pt := range tables {
		pt.SetState(st.Tables[i])
	}
	m.sharedFrames = make(map[uint64]uint64, len(st.Shared))
	for _, p := range st.Shared {
		m.sharedFrames[p.VPN] = p.PPN
	}
	m.giptCursor = st.GIPTCursor
	m.refs = st.Refs
	m.warmedTo = st.WarmedTo

	restoredGroups := make([]bool, len(st.SharedGens))
	for i, cc := range m.cores {
		ck := &st.Cores[i]
		if !cc.active {
			continue
		}
		if cc.vgen == nil {
			return fmt.Errorf("system: core %d trace source %T cannot restore a checkpoint", cc.id, cc.gen)
		}
		cc.cpu.SetState(ck.CPU)
		cc.tlbs.L1.SetState(ck.TLB1)
		cc.tlbs.L2.SetState(ck.TLB2)
		cc.l1.SetState(ck.L1)
		cc.l2.SetState(ck.L2)
		cc.vgen.SetState(ck.Gen)
		if ck.Group >= 0 && ck.Group < len(restoredGroups) && !restoredGroups[ck.Group] {
			cc.vgen.SetSharedState(st.SharedGens[ck.Group])
			restoredGroups[ck.Group] = true
		}
		if cc.hotCount != nil || len(ck.HotCount) > 0 {
			if cc.hotCount == nil {
				return fmt.Errorf("system: checkpoint core %d hot-filter mode does not match", i)
			}
			cc.hotCount = make(map[uint64]uint32, len(ck.HotCount))
			for _, h := range ck.HotCount {
				cc.hotCount[h.VPN] = h.Count
			}
		}
		// The last-translation memo holds a PTE pointer the table restore
		// invalidated.
		cc.memoVPN, cc.memoPTE = 0, nil
	}

	if st.Ctrl != nil {
		if err := m.ctrl.Restore(buildCodec(tables), st.Ctrl); err != nil {
			return fmt.Errorf("system: checkpoint restore: %w", err)
		}
	}
	if st.HasOrg {
		snap, ok := m.org.(org.Snapshotter)
		if !ok {
			return fmt.Errorf("system: checkpoint has organization state but %T cannot restore it", m.org)
		}
		if err := snap.RestoreOrg(st.Org); err != nil {
			return fmt.Errorf("system: checkpoint restore: %w", err)
		}
	}
	if st.VMWalk != m.walk.Name() {
		return fmt.Errorf("system: checkpoint walk model %q does not match machine walk model %q", st.VMWalk, m.walk.Name())
	}
	if err := m.walk.Restore(st.VM); err != nil {
		return fmt.Errorf("system: checkpoint restore: %w", err)
	}
	if (len(st.CtxCount) > 0) != (m.ctx != nil) {
		return fmt.Errorf("system: checkpoint context-switch mode does not match")
	}
	if m.ctx != nil {
		if len(st.CtxCount) != len(m.ctx.Count) || len(st.CtxRNG) != len(m.ctx.RNG) {
			return fmt.Errorf("system: checkpoint context-switch state has %d cores, machine has %d", len(st.CtxCount), len(m.ctx.Count))
		}
		copy(m.ctx.Count, st.CtxCount)
		copy(m.ctx.RNG, st.CtxRNG)
	}
	return nil
}
