// Package dram implements a cycle-level DRAM device model with open-row
// banks, command timing (tRCD/tAA/tRAS/tRP from Table 4), shared data buses,
// and per-event energy accounting. The same model serves both the 3D
// in-package device and the off-package DDR3 device; they differ only in
// the config.DRAMConfig they are constructed with.
package dram

import (
	"fmt"
	"math/bits"

	"taglessdram/internal/config"
	"taglessdram/internal/flat"
	"taglessdram/internal/sim"
)

// AccessKind distinguishes reads from writes for energy accounting.
type AccessKind int

const (
	// Read moves data from the device to the controller.
	Read AccessKind = iota
	// Write moves data from the controller to the device.
	Write
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Result describes one serviced access. The accounting identity
// QueueWait + Service == Done - at (the caller's arrival time) holds
// exactly by construction for every access; the cycle-accounting layer
// relies on it for its conservation invariant.
type Result struct {
	Start    sim.Tick // when the bank began servicing the request
	Done     sim.Tick // when the last data beat transferred
	RowHit   bool     // the open row matched
	Activate bool     // an ACT command was issued

	// QueueWait is time spent waiting on shared resources: the bank
	// becoming free (including refresh blackouts) and data-bus
	// contention. Service is device work: command timing (ACT/PRE/CAS,
	// FAW/tRAS constraints) plus the data transfer. For multi-row
	// transfers QueueWait is the first chunk's wait and Service absorbs
	// the pipelined remainder, preserving the identity.
	QueueWait sim.Tick
	Service   sim.Tick
}

// Latency returns Done minus the request arrival time given by the caller.
func (r Result) Latency(at sim.Tick) sim.Tick {
	if r.Done < at {
		return 0
	}
	return r.Done - at
}

type bank struct {
	res     sim.Resource
	openRow int64    // -1 when no row is open
	actAt   sim.Tick // activation time of the open row, for tRAS

	// Per-bank telemetry over the measured window.
	hits   uint64 // row-buffer hits
	confls uint64 // row conflicts (PRE then ACT)
}

// Device is one DRAM device (a set of channels, ranks and banks).
type Device struct {
	Name string
	cfg  config.DRAMConfig

	banks []bank
	buses []sim.Resource // one data bus per channel

	// Timing in CPU cycles.
	tRCD, tAA, tRAS, tRP sim.Tick
	tREFI, tRFC          sim.Tick // zero tREFI disables refresh
	tFAW                 sim.Tick // zero disables the four-activate window

	// rankActs holds each rank's last four activation times (tFAW).
	rankActs [][4]sim.Tick

	cyclesPerNS float64

	// Address mapping by shifts and masks, set when the row size, the
	// row-buffer count and the channel count are all powers of two (every
	// shipped geometry); otherwise bankOf, channelOf and rowOffset divide.
	pow2      bool
	rowShift  uint // log2(RowBytes)
	bankShift uint // log2(row buffers)
	bankMask  uint64
	chanMask  int
	xferBlock sim.Tick // TransferCycles(config.BlockSize)

	// Statistics.
	Accesses  uint64
	RowHits   uint64
	Activates uint64
	BitsRead  uint64
	BitsWrit  uint64
	BitsIO    uint64
}

// New constructs a device from its configuration. cpuGHz sets the cycle
// base so that device nanosecond timings convert to CPU cycles.
func New(name string, cfg config.DRAMConfig, cpuGHz float64) *Device {
	if cpuGHz <= 0 {
		panic("dram: cpu frequency must be positive")
	}
	d := &Device{
		Name:        name,
		cfg:         cfg,
		banks:       make([]bank, cfg.RowBuffers()),
		buses:       make([]sim.Resource, cfg.Channels),
		cyclesPerNS: cpuGHz,
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	d.tRCD = d.cycles(cfg.Timing.TRCDns)
	d.tAA = d.cycles(cfg.Timing.TAAns)
	d.tRAS = d.cycles(cfg.Timing.TRASns)
	d.tRP = d.cycles(cfg.Timing.TRPns)
	if cfg.Timing.TREFIns > 0 {
		d.tREFI = d.cycles(cfg.Timing.TREFIns)
		d.tRFC = d.cycles(cfg.Timing.TRFCns)
		if d.tRFC >= d.tREFI {
			panic("dram: tRFC must be shorter than tREFI")
		}
	}
	if cfg.Timing.TFAWns > 0 {
		d.tFAW = d.cycles(cfg.Timing.TFAWns)
		d.rankActs = make([][4]sim.Tick, cfg.Channels*cfg.RanksPerChan)
	}
	if isPow2(cfg.RowBytes) && isPow2(len(d.banks)) && isPow2(cfg.Channels) {
		d.pow2 = true
		d.rowShift = uint(bits.TrailingZeros(uint(cfg.RowBytes)))
		d.bankShift = uint(bits.TrailingZeros(uint(len(d.banks))))
		d.bankMask = uint64(len(d.banks) - 1)
		d.chanMask = cfg.Channels - 1
	}
	d.xferBlock = d.cycles(cfg.TransferNS(config.BlockSize))
	return d
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// rankOf maps a (micro)bank index to its rank.
func (d *Device) rankOf(bankIdx int) int {
	return bankIdx % (d.cfg.Channels * d.cfg.RanksPerChan)
}

// fawDelay enforces the four-activate window: an activation at `at` on the
// given bank's rank may not be the fifth within tFAW. It returns the
// permitted activation time and records it.
func (d *Device) fawDelay(at sim.Tick, bankIdx int) sim.Tick {
	if d.tFAW == 0 {
		return at
	}
	acts := &d.rankActs[d.rankOf(bankIdx)]
	// Oldest of the last four activations. Entries are stored offset by
	// one so that zero means "never used".
	oi := 0
	for i := 1; i < 4; i++ {
		if acts[i] < acts[oi] {
			oi = i
		}
	}
	if acts[oi] > 0 {
		if earliest := acts[oi] - 1 + d.tFAW; at < earliest {
			at = earliest
		}
	}
	acts[oi] = at + 1
	return at
}

// refreshDelay pushes a service start out of any refresh blackout: during
// the first tRFC of each tREFI window the device is refreshing (all banks
// in lockstep — a conservative all-rank refresh). The open row is lost.
func (d *Device) refreshDelay(start sim.Tick, b *bank) sim.Tick {
	if d.tREFI == 0 {
		return start
	}
	phase := start % d.tREFI
	if phase < d.tRFC {
		b.openRow = -1 // refresh closes the row
		return start + (d.tRFC - phase)
	}
	return start
}

func (d *Device) cycles(ns float64) sim.Tick {
	c := ns * d.cyclesPerNS
	t := sim.Tick(c)
	if float64(t) < c {
		t++
	}
	return t
}

// Config returns the device configuration.
func (d *Device) Config() config.DRAMConfig { return d.cfg }

// bankOf maps an address to its bank (or microbank) index and row number.
// Consecutive rows interleave across banks so streaming accesses exploit
// bank-level parallelism, matching the bank-interleaved layouts in the
// paper.
func (d *Device) bankOf(addr uint64) (bankIdx int, row int64) {
	if d.pow2 {
		rowID := addr >> d.rowShift
		return int(rowID & d.bankMask), int64(rowID >> d.bankShift)
	}
	rowID := addr / uint64(d.cfg.RowBytes)
	n := uint64(len(d.banks))
	return int(rowID % n), int64(rowID / n)
}

// channelOf maps a bank index to the channel whose data bus it uses.
func (d *Device) channelOf(bankIdx int) int {
	if d.pow2 {
		return bankIdx & d.chanMask
	}
	return bankIdx % d.cfg.Channels
}

// rowOffset is addr's byte offset within its row.
func (d *Device) rowOffset(addr uint64) int {
	if d.pow2 {
		return int(addr & (1<<d.rowShift - 1))
	}
	return int(addr % uint64(d.cfg.RowBytes))
}

// RowBuffers returns the number of independent row buffers modeled.
func (d *Device) RowBuffers() int { return len(d.banks) }

// TransferCycles returns the data-bus occupancy of moving n bytes, in CPU
// cycles (at least one cycle for any non-zero transfer).
func (d *Device) TransferCycles(n int) sim.Tick {
	switch {
	case n <= 0:
		return 0
	case n == config.BlockSize:
		return d.xferBlock
	}
	return d.cycles(d.cfg.TransferNS(n))
}

// Access services a request of `bytes` starting at address addr, arriving
// at cycle `at`. Transfers larger than one row are split across row-sized
// chunks (consecutive rows live in different banks, so large fills stream
// across banks and pipeline on the data bus).
func (d *Device) Access(at sim.Tick, addr uint64, bytes int, kind AccessKind) Result {
	if bytes <= 0 {
		panic(fmt.Sprintf("dram %s: non-positive access size %d", d.Name, bytes))
	}
	var out Result
	first := true
	remaining := bytes
	a := addr
	for remaining > 0 {
		rowOff := d.rowOffset(a)
		chunk := d.cfg.RowBytes - rowOff
		if chunk > remaining {
			chunk = remaining
		}
		r := d.accessRow(at, a, chunk, kind)
		if first {
			out = r
			first = false
		} else {
			if r.Done > out.Done {
				out.Done = r.Done
			}
			out.RowHit = out.RowHit && r.RowHit
			out.Activate = out.Activate || r.Activate
		}
		a += uint64(chunk)
		remaining -= chunk
	}
	// Re-derive the split so QueueWait + Service == Done - at stays exact
	// when later chunks extended Done past the first chunk's completion.
	out.Service = out.Done - at - out.QueueWait
	return out
}

// accessRow services a request confined to a single row.
func (d *Device) accessRow(at sim.Tick, addr uint64, bytes int, kind AccessKind) Result {
	d.Accesses++
	bi, row := d.bankOf(addr)
	b := &d.banks[bi]

	start := sim.MaxTick(at, b.res.FreeAt())
	start = d.refreshDelay(start, b)
	var dataReady sim.Tick
	res := Result{}

	switch {
	case b.openRow == row:
		// Row-buffer hit: column access only.
		d.RowHits++
		b.hits++
		res.RowHit = true
		dataReady = start + d.tAA
	case b.openRow < 0:
		// Closed bank: activate then access.
		d.Activates++
		res.Activate = true
		b.actAt = d.fawDelay(start, bi)
		dataReady = b.actAt + d.tRCD + d.tAA
	default:
		// Row conflict: precharge (respecting tRAS), activate, access.
		b.confls++
		d.Activates++
		res.Activate = true
		preAt := sim.MaxTick(start, b.actAt+d.tRAS)
		actAt := d.fawDelay(preAt+d.tRP, bi)
		b.actAt = actAt
		dataReady = actAt + d.tRCD + d.tAA
	}
	b.openRow = row

	xfer := d.TransferCycles(bytes)
	bus := &d.buses[d.channelOf(bi)]
	busStart := bus.Acquire(dataReady, xfer)
	done := busStart + xfer

	res.Start = start
	res.Done = done
	// Queue wait is everything spent waiting on shared state (bank free,
	// bus contention); service is the rest, so the two sum to done - at
	// exactly.
	res.QueueWait = (start - at) + (busStart - dataReady)
	res.Service = (dataReady - start) + xfer
	b.res.Occupy(start, done)

	bits := uint64(bytes) * 8
	if kind == Read {
		d.BitsRead += bits
	} else {
		d.BitsWrit += bits
	}
	d.BitsIO += bits
	return res
}

// EnergyPJ returns the total device energy consumed so far, in picojoules:
// activation (ACT+PRE per row), read/write array energy, and I/O energy.
func (d *Device) EnergyPJ() float64 {
	e := float64(d.Activates) * d.cfg.Energy.ActPrePerRowNJ * 1e3
	e += float64(d.BitsRead+d.BitsWrit) * d.cfg.Energy.RDWRPerBitPJ
	e += float64(d.BitsIO) * d.cfg.Energy.IOPerBitPJ
	return e
}

// RowHitRate returns the fraction of row-level accesses that hit an open
// row buffer.
func (d *Device) RowHitRate() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.Accesses)
}

// BytesTransferred returns total bytes moved over the device's buses.
func (d *Device) BytesTransferred() uint64 { return d.BitsIO / 8 }

// BusUtilization returns average data-bus utilization across channels over
// the given elapsed window.
func (d *Device) BusUtilization(elapsed sim.Tick) float64 {
	if len(d.buses) == 0 || elapsed == 0 {
		return 0
	}
	var sum float64
	for i := range d.buses {
		sum += d.buses[i].Utilization(elapsed)
	}
	return sum / float64(len(d.buses))
}

// ResetStats clears counters but keeps bank/row state, so a warm-up phase
// can be excluded from measurement.
func (d *Device) ResetStats() {
	d.Accesses, d.RowHits, d.Activates = 0, 0, 0
	d.BitsRead, d.BitsWrit, d.BitsIO = 0, 0, 0
	for i := range d.buses {
		d.buses[i].Busy = 0
	}
	for i := range d.banks {
		d.banks[i].res.Busy = 0
		d.banks[i].hits = 0
		d.banks[i].confls = 0
	}
}

// Visit hands the device's checkpoint state to c: each bank's timeline,
// open row and activation time, each data bus's timeline and every
// rank's four-activate window. Configuration and derived timings are
// construction inputs; the bank, bus and rank counts must match. The
// counters, per-bank row outcomes and busy ticks are left out: they count
// a measured window, and ResetStats zeroes them when one begins.
func (d *Device) Visit(c *flat.Codec) {
	c.Fixed(len(d.banks), "DRAM banks")
	for i := range d.banks {
		b := &d.banks[i]
		b.res.Visit(c)
		c.I64(&b.openRow)
		c.U64((*uint64)(&b.actAt))
	}
	c.Fixed(len(d.buses), "DRAM buses")
	for i := range d.buses {
		d.buses[i].Visit(c)
	}
	c.Fixed(len(d.rankActs), "DRAM ranks")
	for i := range d.rankActs {
		for j := range d.rankActs[i] {
			c.U64((*uint64)(&d.rankActs[i][j]))
		}
	}
}

// BankStat is one bank's measured-window activity: row outcomes and
// occupancy, the per-bank telemetry behind the dram.bank.* metrics.
type BankStat struct {
	Hits      uint64 // row-buffer hits
	Confls    uint64 // row conflicts
	BusyTicks uint64 // cycles the bank was servicing requests
}

// BankStats snapshots every bank's window counters. Cold path: allocates
// the slice.
func (d *Device) BankStats() []BankStat {
	out := make([]BankStat, len(d.banks))
	for i := range d.banks {
		out[i] = BankStat{
			Hits:      d.banks[i].hits,
			Confls:    d.banks[i].confls,
			BusyTicks: uint64(d.banks[i].res.Busy),
		}
	}
	return out
}

// BusBusyTicks returns the data-bus busy cycles summed over channels
// since the last ResetStats. Allocation-free: safe for epoch snapshots.
func (d *Device) BusBusyTicks() uint64 {
	var sum uint64
	for i := range d.buses {
		sum += uint64(d.buses[i].Busy)
	}
	return sum
}

// Channels returns the number of data-bus channels.
func (d *Device) Channels() int { return d.cfg.Channels }

// ChannelBusBusy snapshots each channel's data-bus busy cycles. Cold
// path: allocates the slice.
func (d *Device) ChannelBusBusy() []uint64 {
	out := make([]uint64, len(d.buses))
	for i := range d.buses {
		out[i] = uint64(d.buses[i].Busy)
	}
	return out
}

// AccountTraffic adds energy and byte accounting for traffic whose timing
// is modeled as a fixed latency by the caller (short metadata writes that
// a real controller would prioritize over streaming transfers, e.g. GIPT
// updates). One row activation is charged per call.
func (d *Device) AccountTraffic(bytes int, kind AccessKind) {
	if bytes <= 0 {
		return
	}
	d.Activates++
	bits := uint64(bytes) * 8
	if kind == Read {
		d.BitsRead += bits
	} else {
		d.BitsWrit += bits
	}
	d.BitsIO += bits
}

// ColdWriteLatency returns the closed-bank latency of a write of n bytes.
func (d *Device) ColdWriteLatency(n int) sim.Tick {
	return d.tRCD + d.tAA + d.TransferCycles(n)
}

// MinReadLatency returns the best-case (open-row, idle-bus) latency of a
// read of n bytes, used by analytic models.
func (d *Device) MinReadLatency(n int) sim.Tick {
	return d.tAA + d.TransferCycles(n)
}

// ColdReadLatency returns the closed-bank latency of a read of n bytes.
func (d *Device) ColdReadLatency(n int) sim.Tick {
	return d.tRCD + d.tAA + d.TransferCycles(n)
}
