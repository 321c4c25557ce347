package system

import (
	"testing"

	"taglessdram/internal/config"
)

// benchStepMachine builds the standard hot-path metering rig: the default
// machine at 64× scale running libquantum, whose streaming working set
// reaches steady state quickly (no fills, no faults, no events in the
// measured window), so the benchmark isolates the per-reference path.
func benchStepMachine(tb testing.TB, design config.L3Design) *Machine {
	tb.Helper()
	cfg := config.Default()
	cfg.Design = design
	cfg.InPkg.SizeBytes >>= 6
	cfg.OffPkg.SizeBytes >>= 6
	cfg.CacheSize >>= 6
	w, err := SingleProgram("libquantum", 6, 1)
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
	for _, d := range []config.L3Design{
		config.NoL3, config.BankInterleave, config.SRAMTag, config.Tagless, config.Ideal,
		config.Banshee,
	} {
		b.Run(d.String(), func(b *testing.B) {
			m := benchStepMachine(b, d)
			warmSteps(b, m, 100_000)
			b.ReportAllocs()
			b.ResetTimer()
			if err := m.Steps(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMachineFastForward meters the functional fast-forward path on
// the same rig as BenchmarkMachineStep, so the ratio of the two is the
// ff speedup under identical conditions.
func BenchmarkMachineFastForward(b *testing.B) {
	for _, d := range []config.L3Design{
		config.NoL3, config.BankInterleave, config.SRAMTag, config.Tagless, config.Ideal,
		config.Banshee,
	} {
		b.Run(d.String(), func(b *testing.B) {
			m := benchStepMachine(b, d)
			warmSteps(b, m, 100_000)
			b.ReportAllocs()
			b.ResetTimer()
			if err := m.FastForwardRefs(uint64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestStepAllocFree is the tentpole's allocation guard: after warm-up,
// neither the accurate per-reference loop nor the functional fast-forward
// loop of the Tagless and SRAM-tag designs may allocate at all. A
// regression here means a closure, map insert, or interface boxing crept
// back into a hot path.
func TestStepAllocFree(t *testing.T) {
	for _, d := range []config.L3Design{config.Tagless, config.SRAMTag} {
		t.Run(d.String(), func(t *testing.T) {
			m := benchStepMachine(t, d)
			warmSteps(t, m, 200_000)
			allocs := testing.AllocsPerRun(10, func() {
				if err := m.Steps(2_000); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v steady-state step allocates: %v allocs per 2000 references", d, allocs)
			}
		})
		t.Run(d.String()+"/ff", func(t *testing.T) {
			m := benchStepMachine(t, d)
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
				t.Fatalf("%v fast-forward allocates: %v allocs per 2000 references", d, allocs)
			}
		})
	}
}
