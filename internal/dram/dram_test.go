package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"taglessdram/internal/config"
	"taglessdram/internal/sim"
)

func inPkg(t *testing.T) *Device {
	t.Helper()
	return New("in-pkg", config.Default().InPkg, 3.0)
}

func offPkg(t *testing.T) *Device {
	t.Helper()
	return New("off-pkg", config.Default().OffPkg, 3.0)
}

func TestTimingConversion(t *testing.T) {
	d := inPkg(t)
	// Table 4 in-package: tRCD 8ns, tAA 10ns, tRAS 22ns, tRP 14ns @3GHz.
	if d.tRCD != 24 || d.tAA != 30 || d.tRAS != 66 || d.tRP != 42 {
		t.Fatalf("timings = %d/%d/%d/%d, want 24/30/66/42",
			d.tRCD, d.tAA, d.tRAS, d.tRP)
	}
}

func TestClosedBankRead(t *testing.T) {
	d := inPkg(t)
	r := d.Access(0, 0, 64, Read)
	// Closed bank: tRCD + tAA + transfer(64B @ 51.2GB/s = 1.25ns -> 4cyc).
	want := sim.Tick(24 + 30 + 4)
	if r.Done != want {
		t.Fatalf("done = %d, want %d", r.Done, want)
	}
	if r.RowHit || !r.Activate {
		t.Fatalf("result = %+v, want activation, no row hit", r)
	}
}

func TestRowBufferHit(t *testing.T) {
	d := inPkg(t)
	first := d.Access(0, 0, 64, Read)
	// Second access to the same row after the bank is free: row hit.
	r := d.Access(first.Done, 64, 64, Read)
	if !r.RowHit {
		t.Fatal("expected row-buffer hit")
	}
	wantLatency := d.tAA + d.TransferCycles(64)
	if got := r.Done - first.Done; got != wantLatency {
		t.Fatalf("hit latency = %d, want %d", got, wantLatency)
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	d := inPkg(t)
	nbanks := uint64(d.RowBuffers())
	rowBytes := uint64(d.Config().RowBytes)
	first := d.Access(0, 0, 64, Read)
	// Same bank, different row: row 0 and row nbanks map to bank 0.
	conflictAddr := rowBytes * nbanks
	r := d.Access(first.Done+1000, conflictAddr, 64, Read)
	if r.RowHit || !r.Activate {
		t.Fatalf("result = %+v, want conflict activation", r)
	}
	// Latency must include tRP in addition to tRCD+tAA+xfer.
	lat := r.Done - (first.Done + 1000)
	wantMin := d.tRP + d.tRCD + d.tAA + d.TransferCycles(64)
	if lat < wantMin {
		t.Fatalf("conflict latency = %d, want >= %d", lat, wantMin)
	}
	if got := d.BankStats()[0].Confls; got != 1 {
		t.Fatalf("bank 0 row conflicts = %d, want 1", got)
	}
}

func TestTRASRespected(t *testing.T) {
	d := inPkg(t)
	nbanks := uint64(d.RowBuffers())
	rowBytes := uint64(d.Config().RowBytes)
	// Activate row 0 of bank 0 at t=0, then immediately conflict: the
	// precharge may not begin before actAt + tRAS = 66.
	d.Access(0, 0, 64, Read)
	r := d.Access(0, rowBytes*nbanks, 64, Read)
	earliest := d.tRAS + d.tRP + d.tRCD + d.tAA + d.TransferCycles(64)
	if r.Done < earliest {
		t.Fatalf("done = %d, want >= %d (tRAS must delay precharge)", r.Done, earliest)
	}
}

func TestBankParallelism(t *testing.T) {
	d := inPkg(t)
	rowBytes := uint64(d.Config().RowBytes)
	// Two requests to different banks at t=0 overlap except on the bus.
	r0 := d.Access(0, 0, 64, Read)
	r1 := d.Access(0, rowBytes, 64, Read) // next row -> next bank
	if r1.Done >= r0.Done+d.tRCD {
		t.Fatalf("bank-parallel accesses serialized: %d then %d", r0.Done, r1.Done)
	}
}

func TestSameBankSerializes(t *testing.T) {
	d := inPkg(t)
	r0 := d.Access(0, 0, 64, Read)
	r1 := d.Access(0, 64, 64, Read) // same row, same bank
	if r1.Done <= r0.Done {
		t.Fatalf("same-bank requests did not serialize: %d then %d", r0.Done, r1.Done)
	}
}

func TestBusContention(t *testing.T) {
	d := inPkg(t)
	rowBytes := uint64(d.Config().RowBytes)
	// Saturate the single channel with big transfers from distinct banks.
	r0 := d.Access(0, 0, 4096, Read)
	r1 := d.Access(0, rowBytes, 4096, Read)
	xfer := d.TransferCycles(4096)
	if r1.Done < r0.Done+xfer {
		t.Fatalf("bus transfers overlapped: r0 done %d, r1 done %d, xfer %d",
			r0.Done, r1.Done, xfer)
	}
}

func TestPageFillSpansOneRow(t *testing.T) {
	d := inPkg(t)
	// A 4KB aligned fill is exactly one row: one activation.
	d.Access(0, 0, 4096, Read)
	if d.Activates != 1 {
		t.Fatalf("activations = %d, want 1", d.Activates)
	}
	// An unaligned 4KB fill spans two rows: two activations.
	d2 := inPkg(t)
	d2.Access(0, 2048, 4096, Read)
	if d2.Activates != 2 {
		t.Fatalf("unaligned activations = %d, want 2", d2.Activates)
	}
}

func TestOffPackageSlower(t *testing.T) {
	in, off := inPkg(t), offPkg(t)
	rin := in.Access(0, 0, 64, Read)
	roff := off.Access(0, 0, 64, Read)
	if roff.Done <= rin.Done {
		t.Fatalf("off-package (%d) should be slower than in-package (%d)",
			roff.Done, rin.Done)
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := inPkg(t)
	d.Access(0, 0, 64, Read)
	// One activation (15nJ = 15000pJ) + 512 bits * (4 + 2.4) pJ/bit.
	want := 15000.0 + 512*(4+2.4)
	if got := d.EnergyPJ(); got != want {
		t.Fatalf("energy = %v pJ, want %v", got, want)
	}
	d.Access(d.banks[0].res.FreeAt(), 64, 64, Write)
	// Row hit: no extra activation; writes add the same per-bit energy.
	want += 512 * (4 + 2.4)
	if got := d.EnergyPJ(); got != want {
		t.Fatalf("energy after write = %v pJ, want %v", got, want)
	}
	if d.BitsWrit != 512 || d.BitsRead != 512 {
		t.Fatalf("bits = %d read / %d written", d.BitsRead, d.BitsWrit)
	}
}

func TestOffPackageEnergyHigher(t *testing.T) {
	in, off := inPkg(t), offPkg(t)
	in.Access(0, 0, 4096, Read)
	off.Access(0, 0, 4096, Read)
	if off.EnergyPJ() <= in.EnergyPJ() {
		t.Fatalf("off-package energy (%v) should exceed in-package (%v)",
			off.EnergyPJ(), in.EnergyPJ())
	}
}

func TestRowHitRateAndReset(t *testing.T) {
	d := inPkg(t)
	d.Access(0, 0, 64, Read)
	d.Access(1000, 64, 64, Read)
	d.Access(2000, 128, 64, Read)
	if got := d.RowHitRate(); got < 0.6 || got > 0.7 {
		t.Fatalf("row hit rate = %v, want 2/3", got)
	}
	d.ResetStats()
	if d.Accesses != 0 || d.EnergyPJ() != 0 {
		t.Fatal("reset did not clear stats")
	}
	if d.RowHitRate() != 0 {
		t.Fatal("hit rate after reset should be 0")
	}
	// Row state survives reset: next access to the same row still hits.
	d.Access(3000, 192, 64, Read)
	if d.RowHits != 1 {
		t.Fatalf("row state lost across reset: hits = %d", d.RowHits)
	}
}

func TestBusUtilization(t *testing.T) {
	d := inPkg(t)
	r := d.Access(0, 0, 4096, Read)
	u := d.BusUtilization(r.Done)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %v, want in (0,1]", u)
	}
	if d.BusUtilization(0) != 0 {
		t.Fatal("zero-window utilization should be 0")
	}
}

func TestMinAndColdLatency(t *testing.T) {
	d := inPkg(t)
	if d.MinReadLatency(64) != d.tAA+d.TransferCycles(64) {
		t.Fatal("min read latency wrong")
	}
	if d.ColdReadLatency(64) != d.tRCD+d.tAA+d.TransferCycles(64) {
		t.Fatal("cold read latency wrong")
	}
	if d.ColdReadLatency(64) <= d.MinReadLatency(64) {
		t.Fatal("cold must exceed min")
	}
}

func TestAccessPanicsOnZeroBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-byte access")
		}
	}()
	inPkg(t).Access(0, 0, 0, Read)
}

func TestNewPanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive cpu clock")
		}
	}()
	New("x", config.Default().InPkg, 0)
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("kind strings wrong")
	}
}

func TestResultLatency(t *testing.T) {
	r := Result{Done: 100}
	if r.Latency(40) != 60 {
		t.Fatal("latency wrong")
	}
	if r.Latency(200) != 0 {
		t.Fatal("latency should clamp at zero")
	}
}

// Property: completion time never precedes arrival, and monotonically
// increasing arrivals to the same address produce monotonically increasing
// completions.
func TestAccessMonotonicProperty(t *testing.T) {
	f := func(deltas []uint16, addrs []uint32) bool {
		d := New("p", config.Default().InPkg, 3.0)
		n := len(deltas)
		if len(addrs) < n {
			n = len(addrs)
		}
		at := sim.Tick(0)
		for i := 0; i < n; i++ {
			at += sim.Tick(deltas[i])
			addr := uint64(addrs[i])
			r := d.Access(at, addr, 64, Read)
			if r.Done < at || r.Start < at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy is non-decreasing in the number of accesses, and every
// access is classified exactly once: a row hit or an activation
// (hits+activates == accesses).
func TestAccessClassificationProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		d := New("p", config.Default().OffPkg, 3.0)
		var prev float64
		at := sim.Tick(0)
		for _, a := range addrs {
			d.Access(at, uint64(a), 64, Read)
			at += 10
			e := d.EnergyPJ()
			if e < prev {
				return false
			}
			prev = e
		}
		return d.RowHits+d.Activates == d.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the accounting split is conserved for every access —
// QueueWait + Service == Done - at exactly, with non-negative parts —
// including multi-row transfers and contended banks/buses.
func TestQueueServiceSplitProperty(t *testing.T) {
	f := func(deltas []uint16, addrs []uint32, sizes []uint8) bool {
		d := New("p", config.Default().InPkg, 3.0)
		n := len(deltas)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(sizes) < n {
			n = len(sizes)
		}
		at := sim.Tick(0)
		for i := 0; i < n; i++ {
			at += sim.Tick(deltas[i])
			bytes := 64 * (1 + int(sizes[i]%80)) // up to 5120B: spans rows
			r := d.Access(at, uint64(addrs[i]), bytes, Read)
			if r.QueueWait+r.Service != r.Done-at {
				return false
			}
			if r.QueueWait > r.Done || r.Service > r.Done {
				return false // underflow guard (Tick is unsigned)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueWaitOnBusyBank(t *testing.T) {
	d := inPkg(t)
	first := d.Access(0, 0, 64, Read)
	if first.QueueWait != 0 {
		t.Fatalf("idle access queued %d cycles", first.QueueWait)
	}
	// Same bank, arriving at cycle 1: must wait for the bank to free.
	second := d.Access(1, 64, 64, Read)
	if second.QueueWait == 0 {
		t.Fatalf("contended access reports zero queue wait: %+v", second)
	}
	if second.QueueWait+second.Service != second.Done-1 {
		t.Fatalf("split not conserved: %+v", second)
	}
}

func TestPerBankTelemetryAndBusTicks(t *testing.T) {
	d := inPkg(t)
	d.Access(0, 0, 64, Read)    // closed-bank activate on bank 0
	d.Access(1000, 0, 64, Read) // row hit on bank 0
	rowBytes := uint64(d.cfg.RowBytes)
	nb := uint64(len(d.banks))
	d.Access(2000, rowBytes*nb, 64, Read) // same bank, different row: conflict

	stats := d.BankStats()
	if len(stats) != d.RowBuffers() {
		t.Fatalf("BankStats len = %d, want %d", len(stats), d.RowBuffers())
	}
	var hits, confls, busy uint64
	for _, b := range stats {
		hits += b.Hits
		confls += b.Confls
		busy += b.BusyTicks
	}
	// One closed-bank activation and one conflict activation.
	if hits != d.RowHits || confls != 1 || d.Activates != 2 {
		t.Fatalf("per-bank sums (%d hits, %d confls) vs device (%d hits, %d activates)",
			hits, confls, d.RowHits, d.Activates)
	}
	if stats[0].Hits != 1 || stats[0].Confls != 1 {
		t.Fatalf("bank 0 stats = %+v", stats[0])
	}
	if busy == 0 {
		t.Fatal("no bank occupancy recorded")
	}
	if d.BusBusyTicks() == 0 {
		t.Fatal("no bus busy ticks recorded")
	}
	per := d.ChannelBusBusy()
	if len(per) != d.Channels() {
		t.Fatalf("ChannelBusBusy len = %d, want %d", len(per), d.Channels())
	}
	var sum uint64
	for _, b := range per {
		sum += b
	}
	if sum != d.BusBusyTicks() {
		t.Fatalf("channel sum %d != BusBusyTicks %d", sum, d.BusBusyTicks())
	}

	d.ResetStats()
	for _, b := range d.BankStats() {
		if b.Hits != 0 || b.Confls != 0 || b.BusyTicks != 0 {
			t.Fatalf("ResetStats kept bank telemetry: %+v", b)
		}
	}
	if d.BusBusyTicks() != 0 {
		t.Fatal("ResetStats kept bus busy ticks")
	}
}

// TestAddressMappingMatchesDivision: the shift-and-mask mapping of the
// power-of-two geometries and the division fallback of any other agree
// with the division formulas, and a multi-row access on an odd geometry
// keeps the accounting identity.
func TestAddressMappingMatchesDivision(t *testing.T) {
	odd := config.Default().InPkg
	odd.Channels, odd.RanksPerChan, odd.BanksPerRank, odd.Microbanks = 3, 1, 3, 0
	odd.RowBytes = 3072
	for _, tc := range []struct {
		name string
		cfg  config.DRAMConfig
		pow2 bool
	}{
		{"in-pkg", config.Default().InPkg, true},
		{"off-pkg", config.Default().OffPkg, true},
		{"odd", odd, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(tc.name, tc.cfg, 3.0)
			if d.pow2 != tc.pow2 {
				t.Fatalf("shift-and-mask mapping = %t, want %t", d.pow2, tc.pow2)
			}
			rows, n := uint64(tc.cfg.RowBytes), uint64(d.RowBuffers())
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 10_000; i++ {
				addr := r.Uint64()
				bank, row := d.bankOf(addr)
				if wantBank, wantRow := int(addr/rows%n), int64(addr/rows/n); bank != wantBank || row != wantRow {
					t.Fatalf("bankOf(%#x) = (%d, %d), want (%d, %d)", addr, bank, row, wantBank, wantRow)
				}
				if got, want := d.channelOf(bank), bank%tc.cfg.Channels; got != want {
					t.Fatalf("channelOf(%d) = %d, want %d", bank, got, want)
				}
				if got, want := d.rowOffset(addr), int(addr%rows); got != want {
					t.Fatalf("rowOffset(%#x) = %d, want %d", addr, got, want)
				}
			}
			if got, want := d.TransferCycles(config.BlockSize), d.cycles(tc.cfg.TransferNS(config.BlockSize)); got != want {
				t.Fatalf("TransferCycles(%d) = %d, the float path %d", config.BlockSize, got, want)
			}
		})
	}

	// 8,000 bytes from offset 1,000 span rows 0, 1 and 2 of 3,072 bytes,
	// each in its own bank. A write to row 0 opens it and keeps its bank
	// busy, so the first chunk queues and then hits the open row.
	d := New("odd", odd, 3.0)
	d.Access(0, 0, 64, Write)
	const at = 5
	res := d.Access(at, 1000, 8000, Read)
	if res.QueueWait+res.Service != res.Done-at {
		t.Fatalf("QueueWait %d + Service %d != Done %d - at %d", res.QueueWait, res.Service, res.Done, at)
	}
	if res.QueueWait == 0 {
		t.Fatal("the access did not queue behind the busy bank")
	}
	if d.Activates != 3 {
		t.Fatalf("activations = %d, want 3 (row 0 once, rows 1 and 2)", d.Activates)
	}
}
