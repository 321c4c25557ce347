// Package cpu models one out-of-order core as a trace-driven engine: it
// retires non-memory instructions at the issue width, overlaps independent
// long-latency memory accesses through an MSHR window (the memory-level
// parallelism limit), and serializes work that blocks the pipeline — TLB
// miss handling and DRAM-cache page fills, matching the paper's AMAT
// accounting (Equations 1 and 4 both charge the TLB miss penalty serially).
package cpu

import (
	"fmt"

	"taglessdram/internal/flat"
	"taglessdram/internal/sim"
)

// Core is one simulated core's retirement clock and MSHR window.
type Core struct {
	ID         int
	IssueWidth int
	MSHRs      int

	now        sim.Tick
	pendInstr  int        // sub-cycle instruction accumulator
	window     []sim.Tick // completion times of in-flight overlapped misses
	issueShift uint       // log2(IssueWidth) when it is a power of two
	issueMask  int        // IssueWidth-1 when it is a power of two
	issuePow2  bool

	Instructions uint64
}

// New builds a core.
func New(id, issueWidth, mshrs int) *Core {
	if issueWidth <= 0 || mshrs <= 0 {
		panic("cpu: issue width and MSHRs must be positive")
	}
	c := &Core{
		ID:         id,
		IssueWidth: issueWidth,
		MSHRs:      mshrs,
		window:     make([]sim.Tick, 0, mshrs),
	}
	if issueWidth&(issueWidth-1) == 0 {
		c.issuePow2 = true
		c.issueMask = issueWidth - 1
		for 1<<c.issueShift != issueWidth {
			c.issueShift++
		}
	}
	return c
}

// Now returns the core's current cycle.
func (c *Core) Now() sim.Tick { return c.now }

// Retire advances the clock by n instructions' worth of issue slots.
func (c *Core) Retire(n int) {
	if n <= 0 {
		return
	}
	c.Instructions += uint64(n)
	p := c.pendInstr + n
	if c.issuePow2 {
		c.now += sim.Tick(p >> c.issueShift)
		c.pendInstr = p & c.issueMask
	} else {
		c.now += sim.Tick(p / c.IssueWidth)
		c.pendInstr = p % c.IssueWidth
	}
}

// ReserveMSHR blocks until an MSHR is available and returns the issue time
// for the next overlapped memory access. retireOldest removes the
// earliest-completing in-flight access if the window is full.
func (c *Core) ReserveMSHR() sim.Tick {
	if len(c.window) >= c.MSHRs {
		// Stall until the earliest outstanding access completes.
		mi := 0
		for i, t := range c.window {
			if t < c.window[mi] {
				mi = i
			}
		}
		if c.window[mi] > c.now {
			c.now = c.window[mi]
		}
		c.window[mi] = c.window[len(c.window)-1]
		c.window = c.window[:len(c.window)-1]
	}
	// Drop any already-completed accesses opportunistically.
	for i := 0; i < len(c.window); {
		if c.window[i] <= c.now {
			c.window[i] = c.window[len(c.window)-1]
			c.window = c.window[:len(c.window)-1]
		} else {
			i++
		}
	}
	return c.now
}

// CompleteMSHR records an overlapped access issued by ReserveMSHR.
func (c *Core) CompleteMSHR(done sim.Tick) {
	if done > c.now {
		c.window = append(c.window, done)
	}
}

// Block stalls the core until the given cycle: work that is not
// overlapped (TLB miss handlers, page fills, dependent loads). Callers
// block only the core whose reference they serve; the machine's
// scheduler relies on a step moving no other core's clock.
func (c *Core) Block(until sim.Tick) {
	if until > c.now {
		c.now = until
	}
}

// Drain waits for all in-flight accesses, ending the measured run.
func (c *Core) Drain() {
	for _, t := range c.window {
		if t > c.now {
			c.now = t
		}
	}
	c.window = c.window[:0]
}

// InFlight returns the number of outstanding overlapped accesses.
func (c *Core) InFlight() int { return len(c.window) }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.now == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.now)
}

// Visit hands the core's checkpoint state to c: its clock, the
// sub-cycle instruction remainder, the MSHR window and the retired
// instruction count.
// IssueWidth and MSHRs are construction inputs; a decoded window larger
// than MSHRs fails.
func (c *Core) Visit(fc *flat.Codec) {
	fc.U64((*uint64)(&c.now))
	fc.Int(&c.pendInstr)
	flat.Uints(fc, &c.window)
	if len(c.window) > c.MSHRs {
		fc.Fail(fmt.Errorf("cpu: %d in-flight accesses exceed %d MSHRs", len(c.window), c.MSHRs))
	}
	fc.U64(&c.Instructions)
}
