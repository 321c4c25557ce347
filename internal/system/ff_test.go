package system

import (
	"reflect"
	"testing"

	"taglessdram/internal/org"
)

// TestFastForwardLeavesResultCounters: a fast-forwarded span warms state
// but moves no counter the Result reports, so a sampled Result covers
// only its accurate windows. Every organization runs MIX1 under the
// shared TLB topology with a context switch every 500 references, under
// both switch policies. Across the span only the clocks and instruction
// counts, what is derived from them, and the run's reference and event
// totals may change.
func TestFastForwardLeavesResultCounters(t *testing.T) {
	for _, d := range org.Registered() {
		for _, policy := range []string{"flush", "retain"} {
			t.Run(d.String()+"/"+policy, func(t *testing.T) {
				cfg := scaledConfig(d, 6)
				cfg.TLBTopology = "shared"
				cfg.CtxSwitchRefs, cfg.CtxSwitchFlush = 500, policy == "flush"
				w, err := Mix("MIX1", 6, 1)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.beginMeasurement(1); err != nil {
					t.Fatal(err)
				}
				if err := m.Steps(20_000); err != nil {
					t.Fatal(err)
				}
				before := m.collect()
				if err := m.FastForwardRefs(50_000); err != nil {
					t.Fatal(err)
				}
				after := m.collect()
				for _, r := range []*Result{before, after} {
					r.Cycles, r.Instructions, r.IPC, r.PerCoreIPC = 0, 0, 0, nil
					r.Energy.CoreJ, r.EDPJs, r.Seconds = 0, 0, 0
					r.References, r.KernelEvents = 0, 0
				}
				b, a := reflect.ValueOf(before).Elem(), reflect.ValueOf(after).Elem()
				for i := 0; i < b.NumField(); i++ {
					if !reflect.DeepEqual(b.Field(i).Interface(), a.Field(i).Interface()) {
						t.Errorf("%s moved across the span: %v → %v", b.Type().Field(i).Name, b.Field(i), a.Field(i))
					}
				}
			})
		}
	}
}
