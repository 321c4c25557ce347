// Package system assembles the full machine — cores, TLB hierarchies,
// on-die caches, the selected DRAM-cache organization, and the two DRAM
// devices — and runs workloads through it, producing the IPC, latency and
// energy metrics the paper reports.
package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"taglessdram/internal/trace"
)

// Workload describes what runs on the machine.
type Workload struct {
	Name string
	// PerCore holds one profile per core the workload runs on; the
	// machine builds only those cores.
	PerCore []trace.Profile
	// MultiThreaded runs PerCore[0] as one multi-threaded process across
	// all cores: threads share an address space, a page table and the
	// hot working set.
	MultiThreaded bool
	// Seed varies the generated streams deterministically.
	Seed uint64
	// Sources, when non-empty, replaces synthetic generation entirely:
	// each source (e.g. a trace.Replay over a recorded file) drives one
	// core with a private address space. PerCore is ignored.
	Sources []trace.Source
}

// Validate reports the first problem with the workload.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("system: workload needs a name")
	}
	if len(w.Sources) > 0 {
		if w.MultiThreaded {
			return fmt.Errorf("system: workload %s: recorded sources cannot be multi-threaded", w.Name)
		}
		return nil
	}
	if len(w.PerCore) == 0 {
		return fmt.Errorf("system: workload %s has no programs", w.Name)
	}
	for i, p := range w.PerCore {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("system: workload %s core %d: %w", w.Name, i, err)
		}
	}
	if w.MultiThreaded && len(w.PerCore) != 1 {
		return fmt.Errorf("system: multi-threaded workload %s must have exactly one profile", w.Name)
	}
	return nil
}

// TraceDigest fingerprints the workload: its identity, seed, threading
// model and every per-core profile parameter. Synthetic traces are
// generated deterministically from exactly this state, so two equal
// digests mean byte-identical reference streams — and editing a profile
// in internal/trace changes the digest of every workload that uses it.
// The result-cache key, the sweep's warm-state key and a checkpoint's
// identity header all carry it.
func TraceDigest(w Workload) (string, error) {
	if len(w.Sources) > 0 {
		// Recorded sources replay external files; their bytes are not
		// captured by the profile parameters, so such workloads are not
		// fingerprintable (the facade never builds them).
		return "", fmt.Errorf("system: workload %s is not fingerprintable", w.Name)
	}
	h := sha256.New()
	fmt.Fprintf(h, "name=%q seed=%d multithreaded=%t cores=%d\n",
		w.Name, w.Seed, w.MultiThreaded, len(w.PerCore))
	for i, p := range w.PerCore {
		fmt.Fprintf(h, "core%d=%+v\n", i, p)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// SingleProgram builds the paper's single-programmed setting: the four
// highest-weight SimPoint slices of one SPEC program, one per core
// (Section 4 — "we choose top 4 slices with the highest weights"). Each
// core runs an independently seeded slice in its own address space. shift
// scales the footprint down (see Profile.Scaled).
func SingleProgram(name string, shift uint, seed uint64) (Workload, error) {
	return SingleProgramOn(name, 4, shift, seed)
}

// SingleProgramOn is SingleProgram with an explicit slice (core) count.
func SingleProgramOn(name string, cores int, shift uint, seed uint64) (Workload, error) {
	if cores <= 0 {
		return Workload{}, fmt.Errorf("system: need at least one core for %s", name)
	}
	p, err := trace.ProfileByName(name)
	if err != nil {
		return Workload{}, err
	}
	w := Workload{Name: name, Seed: seed}
	for i := 0; i < cores; i++ {
		w.PerCore = append(w.PerCore, p.Scaled(shift))
	}
	return w, nil
}

// Mix builds one of Table 5's multi-programmed groupings: four programs,
// one per core, with private address spaces (Section 5.2).
func Mix(name string, shift uint, seed uint64) (Workload, error) {
	progs, ok := trace.Mixes()[name]
	if !ok {
		return Workload{}, fmt.Errorf("system: unknown mix %q", name)
	}
	w := Workload{Name: name, Seed: seed}
	for _, prog := range progs {
		p, err := trace.ProfileByName(prog)
		if err != nil {
			return Workload{}, err
		}
		w.PerCore = append(w.PerCore, p.Scaled(shift))
	}
	return w, nil
}

// MultiThread builds one of the PARSEC multi-threaded workloads: one
// program whose threads run on every core and share pages (Section 5.3).
func MultiThread(name string, shift uint, seed uint64) (Workload, error) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:          name,
		PerCore:       []trace.Profile{p.Scaled(shift)},
		MultiThreaded: true,
		Seed:          seed,
	}, nil
}
