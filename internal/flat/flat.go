// Package flat is the byte-level codec behind the simulator's flat binary
// images: the result cache's entry envelope, the Result payload inside
// it, lat.Hist's histogram image and the warm-state checkpoint of a whole
// machine. A Writer appends values; a Reader consumes them in the same
// order. A Codec wraps one or the other, so a single visit function — a
// list of a value's fields in image order — describes an image in both
// directions.
//
// The Reader accepts only what a Writer produces: minimal varints,
// lengths and counts that the bytes left can hold, and, at Done, no
// trailing bytes. So every image a Reader accepts re-encodes to exactly
// its input, and a forged length or count fails before anything is
// allocated for it. Its error is sticky: after the first failure every
// read returns a zero value, so a decoder reads a whole image and checks
// once.
package flat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Writer appends an image to a byte slice.
type Writer struct{ buf []byte }

// NewWriter returns a Writer that appends to dst (nil, or a buffer
// whose capacity sizes the image).
func NewWriter(dst []byte) *Writer { return &Writer{buf: dst} }

// Bytes returns the image written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends one byte.
func (w *Writer) Byte(v byte) { w.buf = append(w.buf, v) }

// Bool appends a presence or truth byte: 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends v as a minimal unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends v as a minimal zigzag varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends v as a minimal zigzag varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Float64 appends v's 8 IEEE-754 bytes, little-endian, so every value
// survives exactly: NaN payloads, −0 and ±Inf included.
func (w *Writer) Float64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Raw appends p as it is; the reader must know its length.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Blob appends p prefixed by its length.
func (w *Writer) Blob(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.Raw(p)
}

// Text appends s prefixed by its length.
func (w *Writer) Text(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes an image a Writer produced.
type Reader struct {
	rest []byte
	err  error
}

// NewReader returns a Reader over data. Byte slices it returns alias
// data.
func NewReader(data []byte) *Reader { return &Reader{rest: data} }

var errShort = errors.New("flat: image ends early")

// Err returns the first error the Reader met, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err as the Reader's error unless it already has one, so
// a decoder can reject a value the codec itself cannot judge, such as an
// unknown version byte.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.rest = nil
	}
}

// Done returns the Reader's error, or an error if bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.rest) != 0 {
		r.Fail(fmt.Errorf("flat: %d trailing bytes", len(r.rest)))
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.rest) == 0 {
		r.Fail(errShort)
		return 0
	}
	v := r.rest[0]
	r.rest = r.rest[1:]
	return v
}

// Bool reads a byte Bool wrote; any value other than 0 or 1 fails.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(errors.New("flat: bool byte is neither 0 nor 1"))
	return false
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.rest)
	switch {
	case n == 0:
		r.Fail(errShort)
		return 0
	case n < 0:
		r.Fail(errors.New("flat: varint overflows 64 bits"))
		return 0
	case n > 1 && r.rest[n-1] == 0:
		// A multi-byte varint ending in a zero byte pads a smaller value.
		r.Fail(errors.New("flat: non-minimal varint"))
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// Varint reads a minimal zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a minimal zigzag varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("flat: %d overflows int", v))
		return 0
	}
	return int(v)
}

// Float64 reads 8 IEEE-754 bytes.
func (r *Reader) Float64() float64 {
	if len(r.rest) < 8 {
		r.Fail(errShort)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.rest)
	r.rest = r.rest[8:]
	return math.Float64frombits(v)
}

// Raw reads n bytes as they are (nil once the Reader has failed).
func (r *Reader) Raw(n int) []byte {
	if n > len(r.rest) {
		r.Fail(errShort)
		return nil
	}
	p := r.rest[:n:n]
	r.rest = r.rest[n:]
	return p
}

// Blob reads bytes Blob wrote.
func (r *Reader) Blob() []byte { return r.Raw(r.Len(1)) }

// Text reads a string Text wrote.
func (r *Reader) Text() string { return string(r.Blob()) }

// Len reads a length or element count whose elements each take at least
// size bytes (size ≥ 1), failing when the bytes left cannot hold that
// many. A decoder can therefore allocate for the count it returns.
func (r *Reader) Len(size int) int {
	n := r.Uvarint()
	if left := uint64(len(r.rest)) / uint64(size); n > left {
		r.Fail(fmt.Errorf("flat: count %d exceeds the %d bytes left", n, len(r.rest)))
		return 0
	}
	return int(n)
}
