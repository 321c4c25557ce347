package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Source produces a reference stream. Generator is the synthetic source;
// Replay feeds back a recorded trace.
type Source interface {
	Next() Access
}

// Trace-file format: a fixed header followed by one varint-encoded record
// per access. The format is stable and self-describing enough for
// cross-version replay.
const (
	fileMagic   = "TDCT" // Tagless DRAM Cache Trace
	fileVersion = 1
)

// Record flag bits.
const (
	flagWrite = 1 << iota
	flagLowReuse
	flagDependent
	flagShared
)

// Record writes n accesses from src to w in the trace-file format.
func Record(w io.Writer, src Source, n uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fileVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], n)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [2*binary.MaxVarintLen64 + 1]byte
	for i := uint64(0); i < n; i++ {
		a := src.Next()
		var flags byte
		if a.Write {
			flags |= flagWrite
		}
		if a.LowReuse {
			flags |= flagLowReuse
		}
		if a.Dependent {
			flags |= flagDependent
		}
		if a.Shared {
			flags |= flagShared
		}
		buf[0] = flags
		k := 1
		k += binary.PutUvarint(buf[k:], a.VAddr)
		k += binary.PutUvarint(buf[k:], uint64(a.Gap))
		if _, err := bw.Write(buf[:k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPrealloc bounds how many records ReadAll allocates for up front on
// the header's word alone; larger traces grow by append, which only
// ever holds records actually read.
const maxPrealloc = 1 << 16

// ReadAll parses a trace file into memory. The header's record count is
// not trusted for allocation: memory grows with the records present,
// each at least 3 bytes long (a flags byte and two uvarints), so a
// forged count costs an error, not the process.
func ReadAll(r io.Reader) ([]Access, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[4:12])
	const sanity = 1 << 32
	if n > sanity {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	prealloc := n
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	out := make([]Access, 0, prealloc)
	for i := uint64(0); i < n; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		vaddr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d vaddr: %w", i, err)
		}
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d gap: %w", i, err)
		}
		if gap > math.MaxInt {
			return nil, fmt.Errorf("trace: record %d gap %d overflows int", i, gap)
		}
		out = append(out, Access{
			VAddr:     vaddr,
			Gap:       int(gap),
			Write:     flags&flagWrite != 0,
			LowReuse:  flags&flagLowReuse != 0,
			Dependent: flags&flagDependent != 0,
			Shared:    flags&flagShared != 0,
		})
	}
	return out, nil
}

// Replay is a Source that cycles through a recorded trace (simulations are
// budget-bounded, so wrapping models a steady-state loop of the recorded
// window).
type Replay struct {
	accesses []Access
	pos      int
	Wraps    int
}

// NewReplay wraps recorded accesses as a Source.
func NewReplay(accesses []Access) (*Replay, error) {
	if len(accesses) == 0 {
		return nil, fmt.Errorf("trace: empty replay")
	}
	return &Replay{accesses: accesses}, nil
}

// Next returns the next recorded access, wrapping at the end.
func (r *Replay) Next() Access {
	a := r.accesses[r.pos]
	r.pos++
	if r.pos == len(r.accesses) {
		r.pos = 0
		r.Wraps++
	}
	return a
}

// Len returns the recorded trace length.
func (r *Replay) Len() int { return len(r.accesses) }
