package dram

import (
	"testing"
	"testing/quick"

	"taglessdram/internal/config"
	"taglessdram/internal/sim"
)

// refreshDevice returns an off-package-like device with refresh enabled:
// tREFI 1000ns, tRFC 100ns (shortened for test visibility).
func refreshDevice(t *testing.T) *Device {
	t.Helper()
	cfg := config.Default().OffPkg
	cfg.Timing.TREFIns = 1000
	cfg.Timing.TRFCns = 100
	return New("refresh", cfg, 3.0)
}

func TestRefreshBlackoutDelaysAccess(t *testing.T) {
	d := refreshDevice(t)
	// tREFI = 3000 cycles, tRFC = 300 cycles. An access arriving inside
	// the blackout (cycle 100) cannot start before cycle 300.
	r := d.Access(100, 0, 64, Read)
	if r.Start != 300 {
		t.Fatalf("access started at %d, want 300, the end of the refresh blackout", r.Start)
	}
	if r.QueueWait < 200 {
		t.Fatalf("queue wait = %d, want the 200 blackout cycles", r.QueueWait)
	}
}

func TestRefreshOutsideBlackoutNoDelay(t *testing.T) {
	d := refreshDevice(t)
	r := d.Access(400, 0, 64, Read)
	if r.Start != 400 || r.QueueWait != 0 {
		t.Fatalf("access outside blackout started at %d after %d queued cycles, want 400 and 0", r.Start, r.QueueWait)
	}
}

func TestRefreshClosesRow(t *testing.T) {
	d := refreshDevice(t)
	d.Access(400, 0, 64, Read) // opens row 0
	// Next access to the same row arrives inside the next blackout
	// (cycle 3000..3300): the refresh closed the row, so no row hit.
	r := d.Access(3100, 64, 64, Read)
	if r.RowHit {
		t.Fatal("row survived a refresh")
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	d := New("plain", config.Default().OffPkg, 3.0)
	if d.tREFI != 0 {
		t.Fatal("refresh enabled without configuration")
	}
	if r := d.Access(50, 0, 64, Read); r.Start != 50 {
		t.Fatalf("access at 50 started at %d: refresh fired while disabled", r.Start)
	}
}

func TestRefreshPanicsOnBadPair(t *testing.T) {
	cfg := config.Default().OffPkg
	cfg.Timing.TREFIns = 100
	cfg.Timing.TRFCns = 200
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tRFC >= tREFI")
		}
	}()
	New("bad", cfg, 3.0)
}

// Property: with refresh enabled, no access ever *starts* inside a
// blackout window, and completions remain monotone per bank.
func TestRefreshExclusionProperty(t *testing.T) {
	f := func(arrivals []uint32) bool {
		cfg := config.Default().OffPkg
		cfg.Timing.TREFIns = 500
		cfg.Timing.TRFCns = 50
		d := New("p", cfg, 3.0)
		tREFI, tRFC := d.tREFI, d.tRFC
		at := sim.Tick(0)
		for _, a := range arrivals {
			at += sim.Tick(a % 5000)
			r := d.Access(at, uint64(a)*64, 64, Read)
			if r.Start%tREFI < tRFC {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRefreshOverheadBounded: the long-run throughput loss from refresh
// approximates tRFC/tREFI.
func TestRefreshOverheadBounded(t *testing.T) {
	cfg := config.Default().OffPkg
	cfg.Timing.TREFIns = 1000
	cfg.Timing.TRFCns = 100
	d := New("r", cfg, 3.0)
	base := New("b", config.Default().OffPkg, 3.0)
	var at sim.Tick
	var lastR, lastB sim.Tick
	for i := 0; i < 2000; i++ {
		at += 100
		lastR = d.Access(at, uint64(i)*4096, 64, Read).Done
		lastB = base.Access(at, uint64(i)*4096, 64, Read).Done
	}
	if lastR < lastB {
		t.Fatal("refresh made the device faster")
	}
	// The slowdown is bounded by roughly the refresh duty cycle.
	if float64(lastR) > float64(lastB)*1.25 {
		t.Fatalf("refresh overhead implausible: %d vs %d", lastR, lastB)
	}
}

func TestFAWLimitsActivationBursts(t *testing.T) {
	cfg := config.Default().OffPkg
	cfg.Timing.TFAWns = 40 // 120 cycles at 3GHz
	d := New("faw", cfg, 3.0)
	// Five activations to distinct banks of the same rank at t=0: the
	// fifth must wait for the four-activate window.
	// Banks i*Channels share... banks interleave by row; use rows with the
	// same rank: rank = bank % (channels*ranks) = bank % 2.
	rowBytes := uint64(cfg.RowBytes)
	// A closed-bank read the window does not delay is serviced in
	// tRCD+tAA plus the transfer; window delay lengthens the service.
	unthrottled := d.tRCD + d.tAA + d.TransferCycles(64)
	var acts, throttled int
	var lastDone sim.Tick
	for i := 0; i < 10; i++ {
		// Even bank indices are rank 0.
		addr := rowBytes * uint64(2*i)
		r := d.Access(0, addr, 64, Read)
		if r.Activate {
			acts++
			if r.Done > lastDone {
				lastDone = r.Done
			}
		}
		if r.Service > unthrottled {
			throttled++
		}
	}
	if acts != 10 {
		t.Fatalf("activations = %d", acts)
	}
	if throttled < 6 {
		t.Fatalf("tFAW throttled only %d of a 10-activation burst", throttled)
	}
	// The tenth activation waits two full windows ((10-1)/4 = 2), so the
	// slowest completion includes 240 cycles of window delay.
	if lastDone < 240 {
		t.Fatalf("slowest completion at %d, want >= 240", lastDone)
	}
}

func TestFAWDisabledByDefault(t *testing.T) {
	d := New("plain", config.Default().OffPkg, 3.0)
	rowBytes := uint64(d.Config().RowBytes)
	unthrottled := d.tRCD + d.tAA + d.TransferCycles(64)
	for i := 0; i < 10; i++ {
		if r := d.Access(0, rowBytes*uint64(2*i), 64, Read); r.Service != unthrottled {
			t.Fatalf("activation %d serviced in %d cycles, want %d: tFAW active without configuration", i, r.Service, unthrottled)
		}
	}
}

// Property: with tFAW on, within any window of tFAW cycles at most four
// activations start per rank.
func TestFAWWindowProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		cfg := config.Default().OffPkg
		cfg.Timing.TFAWns = 50
		d := New("p", cfg, 3.0)
		tFAW := d.tFAW
		var starts []sim.Tick
		at := sim.Tick(0)
		for _, a := range addrs {
			r := d.Access(at, uint64(a)*uint64(cfg.RowBytes), 64, Read)
			if r.Activate && d.rankOf(int(uint64(a)%uint64(d.RowBuffers()))) == 0 {
				starts = append(starts, d.banks[int(uint64(a)%uint64(d.RowBuffers()))].actAt)
			}
			at += 5
		}
		// Sliding window check.
		for i := range starts {
			n := 0
			for j := range starts {
				if starts[j] >= starts[i] && starts[j] < starts[i]+tFAW {
					n++
				}
			}
			if n > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
