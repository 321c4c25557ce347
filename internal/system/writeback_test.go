package system

import (
	"testing"

	"taglessdram/internal/config"
	"taglessdram/internal/org"
)

// TestWritebackRouting drives a dirty on-die victim line through every
// registered organization and asserts the write-back traffic lands on the
// device the design routes it to: the in-package cache when the line's
// page (or block) is resident, off-package DRAM otherwise.
func TestWritebackRouting(t *testing.T) {
	const ps = config.PageSize
	type wb struct {
		name   string
		key    uint64
		wantIn bool
	}
	cases := []struct {
		design config.L3Design
		// prime issues write accesses that make the relevant page or
		// block resident before the write-back fires.
		prime []org.Request
		wbs   []wb
	}{
		{design: config.NoL3, wbs: []wb{
			{"always off-package", 0x1000, false},
		}},
		{design: config.BankInterleave, wbs: []wb{
			{"page 0 interleaves in-package", 0*ps + 64, true},
			{"page 1 interleaves off-package", 1*ps + 64, false},
		}},
		{design: config.SRAMTag,
			prime: []org.Request{{Frame: 5, Write: true}},
			wbs: []wb{
				{"resident page", 5*ps + 128, true},
				{"absent page", 7 * ps, false},
			}},
		{design: config.Tagless, wbs: []wb{
			{"cache-address key", 3*ps + 64, true},
			{"physical-address key", org.PABit | 0x2000, false},
		}},
		{design: config.Ideal, wbs: []wb{
			{"always in-package", 0x9000, true},
		}},
		{design: config.AlloyBlock,
			prime: []org.Request{{Key: 0x1000, Write: true}},
			wbs: []wb{
				{"resident block", 0x1000, true},
				{"absent block", 0x1040, false},
			}},
		{design: config.Banshee,
			// Two misses on page 5: the first bypasses, the second
			// reaches the fill threshold and installs the page.
			prime: []org.Request{
				{Key: 5 * ps, Frame: 5, Write: true},
				{Key: 5 * ps, Frame: 5, Write: true},
			},
			wbs: []wb{
				{"resident page", 5*ps + 64, true},
				{"absent page", 9 * ps, false},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.design.String(), func(t *testing.T) {
			m := benchStepMachine(t, tc.design, "libquantum")
			cc := m.cores[0]
			for _, r := range tc.prime {
				r.CPU = cc.cpu
				m.org.Access(r)
			}
			for _, w := range tc.wbs {
				inBefore, offBefore := m.inPkg.BytesTransferred(), m.offPkg.BytesTransferred()
				m.org.Writeback(cc.cpu.Now(), w.key)
				inD := m.inPkg.BytesTransferred() - inBefore
				offD := m.offPkg.BytesTransferred() - offBefore
				if w.wantIn && (inD == 0 || offD != 0) {
					t.Errorf("%s: want in-package traffic, got in=%dB off=%dB", w.name, inD, offD)
				}
				if !w.wantIn && (offD == 0 || inD != 0) {
					t.Errorf("%s: want off-package traffic, got in=%dB off=%dB", w.name, inD, offD)
				}
			}
		})
	}
}
