package cpu

import (
	"testing"
	"testing/quick"

	"taglessdram/internal/sim"
)

func TestRetireAdvancesAtIssueWidth(t *testing.T) {
	c := New(0, 4, 8)
	c.Retire(8)
	if c.Now() != 2 {
		t.Fatalf("now = %d, want 2", c.Now())
	}
	// Sub-cycle remainder accumulates.
	c.Retire(3)
	if c.Now() != 2 {
		t.Fatalf("now = %d, want 2 (3 instr pending)", c.Now())
	}
	c.Retire(1)
	if c.Now() != 3 {
		t.Fatalf("now = %d, want 3", c.Now())
	}
	if c.Instructions != 12 {
		t.Fatalf("instructions = %d", c.Instructions)
	}
	c.Retire(0)
	c.Retire(-5)
	if c.Instructions != 12 {
		t.Fatal("non-positive retire changed state")
	}
}

func TestMSHRWindowOverlaps(t *testing.T) {
	c := New(0, 4, 4)
	// Four accesses complete at 100; all overlap, no stall.
	for i := 0; i < 4; i++ {
		at := c.ReserveMSHR()
		if at != 0 {
			t.Fatalf("issue %d at %d, want 0", i, at)
		}
		c.CompleteMSHR(100)
	}
	if c.Now() != 0 {
		t.Fatalf("now = %d after four overlapped issues, want 0", c.Now())
	}
	// Fifth access: window full → stall until 100.
	at := c.ReserveMSHR()
	if at != 100 || c.Now() != 100 {
		t.Fatalf("issue 5 at %d (now %d), want 100", at, c.Now())
	}
}

func TestReserveDropsCompleted(t *testing.T) {
	c := New(0, 4, 2)
	c.CompleteMSHR(10)
	c.CompleteMSHR(20)
	c.Retire(400) // now = 100, both done
	at := c.ReserveMSHR()
	if c.InFlight() != 0 {
		t.Fatalf("in flight = %d, want 0 (completed dropped)", c.InFlight())
	}
	if at != 100 || c.Now() != 100 {
		t.Fatalf("issued at %d (now %d) despite completed accesses, want 100", at, c.Now())
	}
}

func TestSerialize(t *testing.T) {
	c := New(0, 4, 8)
	c.Block(500)
	if c.Now() != 500 {
		t.Fatalf("now = %d, want 500", c.Now())
	}
	// Blocking until the past is a no-op on the clock.
	c.Block(100)
	if c.Now() != 500 {
		t.Fatal("clock moved backwards")
	}
	// A blocked core issues its next overlapped access after the block.
	if at := c.ReserveMSHR(); at != 500 {
		t.Fatalf("issued at %d, want 500", at)
	}
}

func TestDrain(t *testing.T) {
	c := New(0, 4, 8)
	c.CompleteMSHR(100)
	c.CompleteMSHR(300)
	c.Drain()
	if c.Now() != 300 || c.InFlight() != 0 {
		t.Fatalf("after drain: now=%d inflight=%d", c.Now(), c.InFlight())
	}
}

func TestCompleteInPastNotQueued(t *testing.T) {
	c := New(0, 4, 8)
	c.Retire(400) // now = 100
	c.CompleteMSHR(50)
	if c.InFlight() != 0 {
		t.Fatal("past completion queued")
	}
}

func TestIPC(t *testing.T) {
	c := New(0, 4, 8)
	if c.IPC() != 0 {
		t.Fatal("IPC before any cycle should be 0")
	}
	c.Retire(400) // 100 cycles
	if c.IPC() != 4 {
		t.Fatalf("IPC = %v, want 4", c.IPC())
	}
	c.Block(200) // stall to 200: IPC halves
	if c.IPC() != 2 {
		t.Fatalf("IPC = %v, want 2", c.IPC())
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 0, 8) },
		func() { New(0, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: the clock never moves backwards under any operation sequence,
// and in-flight never exceeds the MSHR count.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(0, 4, 4)
		prev := sim.Tick(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				c.Retire(int(op % 7))
			case 1:
				at := c.ReserveMSHR()
				c.CompleteMSHR(at + sim.Tick(op%300))
			case 2:
				c.Block(c.Now() + sim.Tick(op%100))
			case 3:
				c.Drain()
			}
			if c.Now() < prev {
				return false
			}
			if c.InFlight() > 4 {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more MSHRs never hurt — total runtime with a larger window is
// never longer for the same access pattern.
func TestMoreMSHRsNeverSlower(t *testing.T) {
	run := func(mshrs int, lats []uint8) sim.Tick {
		c := New(0, 4, mshrs)
		for _, l := range lats {
			c.Retire(10)
			at := c.ReserveMSHR()
			c.CompleteMSHR(at + sim.Tick(l) + 1)
		}
		c.Drain()
		return c.Now()
	}
	f := func(lats []uint8) bool {
		return run(8, lats) <= run(2, lats)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
