package system

import (
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/trace"
)

// benchRigs are the hot-path metering rigs' workloads, each with the
// prefix of its benchmark and subtest names: four copies of libquantum,
// whose streaming working set reaches steady state quickly (no fills, no
// faults, no events in the measured window), so the benchmark isolates
// the per-reference path; and MIX1, whose four programs run at different
// speeds, so the scheduler often runs one core for several steps in a
// row. The libquantum rig's names keep their original unprefixed form.
var benchRigs = []struct{ prefix, workload string }{
	{"", "libquantum"},
	{"MIX1/", "MIX1"},
}

// benchStepMachine builds a hot-path metering rig: the default machine at
// 64× scale running workload, a SPEC program or a mix.
func benchStepMachine(tb testing.TB, design config.L3Design, workload string) *Machine {
	tb.Helper()
	cfg := config.Default()
	cfg.Design = design
	cfg.InPkg.SizeBytes >>= 6
	cfg.OffPkg.SizeBytes >>= 6
	cfg.CacheSize >>= 6
	build := SingleProgram
	if _, ok := trace.Mixes()[workload]; ok {
		build = Mix
	}
	w, err := build(workload, 6, 1)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(cfg, w)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// warmSteps brings the machine to steady state and drains pending events.
func warmSteps(tb testing.TB, m *Machine, n int) {
	tb.Helper()
	if err := m.Steps(n); err != nil {
		tb.Fatal(err)
	}
	m.kernel.Run(0)
}

// BenchmarkMachineStep meters one trace reference through the full
// per-reference path (trace generation, TLB hierarchy, L1/L2, the
// design-specific L3) per iteration. This is the PR's headline number:
// steady state must be allocation-free, and the Tagless design must hold
// its speedup over the pre-optimization baseline (see BENCH_step.json).
func BenchmarkMachineStep(b *testing.B) {
	for _, rig := range benchRigs {
		for _, d := range benchDesigns {
			b.Run(rig.prefix+d.String(), func(b *testing.B) {
				m := benchStepMachine(b, d, rig.workload)
				warmSteps(b, m, 100_000)
				b.ReportAllocs()
				b.ResetTimer()
				if err := m.Steps(b.N); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// benchDesigns are the organizations the step benchmarks meter.
var benchDesigns = []config.L3Design{
	config.NoL3, config.BankInterleave, config.SRAMTag, config.Tagless, config.Ideal,
	config.Banshee,
}

// BenchmarkMachineFastForward meters the functional fast-forward path on
// the same rig as BenchmarkMachineStep, so the ratio of the two is the
// ff speedup under identical conditions.
func BenchmarkMachineFastForward(b *testing.B) {
	for _, rig := range benchRigs {
		for _, d := range benchDesigns {
			b.Run(rig.prefix+d.String(), func(b *testing.B) {
				m := benchStepMachine(b, d, rig.workload)
				warmSteps(b, m, 100_000)
				b.ReportAllocs()
				b.ResetTimer()
				if err := m.FastForwardRefs(uint64(b.N)); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// TestStepAllocFree is the tentpole's allocation guard: after warm-up,
// neither the accurate per-reference loop nor the functional fast-forward
// loop of the Tagless and SRAM-tag designs may allocate at all. A
// regression here means a closure, map insert, or interface boxing crept
// back into a hot path.
func TestStepAllocFree(t *testing.T) {
	for _, rig := range benchRigs {
		for _, d := range []config.L3Design{config.Tagless, config.SRAMTag} {
			name := rig.prefix + d.String()
			t.Run(name, func(t *testing.T) {
				m := benchStepMachine(t, d, rig.workload)
				warmSteps(t, m, 200_000)
				allocs := testing.AllocsPerRun(10, func() {
					if err := m.Steps(2_000); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("%s steady-state step allocates: %v allocs per 2000 references", name, allocs)
				}
			})
			t.Run(name+"/ff", func(t *testing.T) {
				m := benchStepMachine(t, d, rig.workload)
				warmSteps(t, m, 200_000)
				// One priming span so the lazily allocated fast-forward
				// filter exists.
				if err := m.FastForwardRefs(2_000); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(10, func() {
					if err := m.FastForwardRefs(2_000); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("%s fast-forward allocates: %v allocs per 2000 references", name, allocs)
				}
			})
		}
	}
}
