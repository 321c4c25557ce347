// Package vm is the pluggable virtual-memory layer: timing models for
// page-table walks and TLB arrangements, each behind a name→factory
// registry in the style of internal/org. The machine asks the registry
// for a WalkModel by name ("fixed", "pwc", "nested") and for a TLB
// topology ("private", "shared") and wires the results into its
// translation path; new models join by registering, without touching the
// system layer.
//
// Walk models attribute their own latency components into the machine's
// recorder (pt_walk for the one-dimensional models, ptwalk_guest and
// ptwalk_host for the nested walk), preserving the cycle-accounting
// layer's zero-residue invariant: every cycle a walk adds to the miss
// handler's span is attributed exactly once.
package vm

import (
	"fmt"
	"sort"
	"strings"

	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/flat"
	"taglessdram/internal/lat"
	"taglessdram/internal/sim"
	"taglessdram/internal/tlb"
)

// Ports is the narrow view of the machine a walk model operates over:
// the resolved configuration, the off-package DRAM device the page
// tables live in, the latency recorder, and the address region reserved
// for page-table state.
type Ports struct {
	Cfg    *config.SystemConfig
	OffPkg *dram.Device
	Rec    *lat.Recorder
	// PTBase and PTSize delimit the off-package region that holds
	// page-table state; every memory reference a walk issues falls
	// inside it.
	PTBase uint64
	PTSize uint64
}

// WalkModel prices the page-table walk of one TLB miss. Implementations
// attribute their own latency components into Ports.Rec, so the caller
// must not re-attribute the returned duration.
type WalkModel interface {
	// Name returns the registry name the model was built under.
	Name() string
	// Walk performs the walk for core coreID's miss on vpn starting at
	// time at, returning the completion time (always ≥ at).
	Walk(at sim.Tick, coreID int, vpn uint64) sim.Tick
	// Visit hands c the model's checkpoint state (its per-core walk
	// caches, if any), checking decoded geometry against its own.
	Visit(c *flat.Codec)
}

// WalkFactory builds a walk model over the machine's ports.
type WalkFactory func(Ports) (WalkModel, error)

var walkRegistry = map[string]WalkFactory{}

// RegisterWalk adds a walk model to the registry. Duplicate names panic:
// they are programming errors, caught at init.
func RegisterWalk(name string, f WalkFactory) {
	if _, dup := walkRegistry[name]; dup {
		panic(fmt.Sprintf("vm: walk model %q registered twice", name))
	}
	walkRegistry[name] = f
}

// NewWalk builds the named walk model.
func NewWalk(name string, p Ports) (WalkModel, error) {
	f, ok := walkRegistry[name]
	if !ok {
		return nil, fmt.Errorf("vm: unknown walk model %q (have %s)",
			name, strings.Join(RegisteredWalks(), ", "))
	}
	return f(p)
}

// RegisteredWalks returns the registered walk-model names, sorted.
func RegisteredWalks() []string {
	names := make([]string, 0, len(walkRegistry))
	for n := range walkRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TLBs is a built TLB arrangement: one hierarchy per core, plus the
// shared group when the topology has one (nil under private).
type TLBs struct {
	Cores  []*tlb.Hierarchy
	Shared *tlb.SharedGroup
}

// TopologyFactory builds the per-core TLB hierarchies of one topology.
type TopologyFactory func(l1, l2 config.TLBConfig, cores int) (*TLBs, error)

var topoRegistry = map[string]TopologyFactory{}

// RegisterTopology adds a TLB topology to the registry.
func RegisterTopology(name string, f TopologyFactory) {
	if _, dup := topoRegistry[name]; dup {
		panic(fmt.Sprintf("vm: TLB topology %q registered twice", name))
	}
	topoRegistry[name] = f
}

// NewTopology builds the named TLB topology.
func NewTopology(name string, l1, l2 config.TLBConfig, cores int) (*TLBs, error) {
	f, ok := topoRegistry[name]
	if !ok {
		return nil, fmt.Errorf("vm: unknown TLB topology %q (have %s)",
			name, strings.Join(RegisteredTopologies(), ", "))
	}
	return f(l1, l2, cores)
}

// RegisteredTopologies returns the registered topology names, sorted.
func RegisteredTopologies() []string {
	names := make([]string, 0, len(topoRegistry))
	for n := range topoRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterTopology("private", func(l1, l2 config.TLBConfig, cores int) (*TLBs, error) {
		t := &TLBs{Cores: make([]*tlb.Hierarchy, cores)}
		for i := range t.Cores {
			t.Cores[i] = tlb.NewHierarchy(l1, l2)
		}
		return t, nil
	})
	RegisterTopology("shared", func(l1, l2 config.TLBConfig, cores int) (*TLBs, error) {
		g, hs := tlb.NewSharedGroup(l1, l2, cores)
		return &TLBs{Cores: hs, Shared: g}, nil
	})
}
