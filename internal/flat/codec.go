package flat

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Codec is one direction of an image. A visit function hands it every
// field of a value in image order, so one field list serves both
// directions: an encoding Codec renders each field it is handed, a
// decoding Codec fills it. A visit that meets a value it cannot render
// or accept calls Fail. The first failure sticks on either side, and a
// failed decoding Codec fills zeros, so a visit runs to its end and its
// caller checks once.
type Codec struct {
	w   *Writer
	r   *Reader
	err error // the encoding side's failure
}

// Encode renders the image visit describes, appended to dst (nil, or a
// buffer whose capacity sizes the image).
func Encode(dst []byte, visit func(*Codec)) ([]byte, error) {
	c := &Codec{w: NewWriter(dst)}
	visit(c)
	if c.err != nil {
		return nil, c.err
	}
	return c.w.Bytes(), nil
}

// Decode fills the fields visit hands over from data, which must hold
// exactly one image: short, padded or trailing bytes fail.
func Decode(data []byte, visit func(*Codec)) error {
	c := &Codec{r: NewReader(data)}
	visit(c)
	return c.r.Done()
}

// MinSize returns the size of the image visit renders: for the visit of
// a zero element, the fewest bytes one can take, which bounds a decoded
// count before anything is allocated for it.
func MinSize(visit func(*Codec)) int {
	img, _ := Encode(nil, visit)
	return len(img)
}

// Decoding reports whether c fills the fields it is handed (rather than
// rendering them).
func (c *Codec) Decoding() bool { return c.r != nil }

// Fail records err as c's error unless it already has one.
func (c *Codec) Fail(err error) {
	switch {
	case c.r != nil:
		c.r.Fail(err)
	case c.err == nil:
		c.err = err
	}
}

// Err returns c's first error, if any.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.Err()
	}
	return c.err
}

// U64 renders or fills an unsigned integer (a minimal uvarint).
func (c *Codec) U64(v *uint64) {
	if c.r != nil {
		*v = c.r.Uvarint()
	} else {
		c.w.Uvarint(*v)
	}
}

// U32 renders or fills a uint32; a decoded value beyond 32 bits fails.
func (c *Codec) U32(v *uint32) {
	if c.r == nil {
		c.w.Uvarint(uint64(*v))
		return
	}
	u := c.r.Uvarint()
	if u > math.MaxUint32 {
		c.r.Fail(fmt.Errorf("flat: %d overflows uint32", u))
		u = 0
	}
	*v = uint32(u)
}

// Int renders or fills an int (a minimal zigzag varint).
func (c *Codec) Int(v *int) {
	if c.r != nil {
		*v = c.r.Int()
	} else {
		c.w.Int(*v)
	}
}

// I64 renders or fills an int64 (a minimal zigzag varint).
func (c *Codec) I64(v *int64) {
	if c.r != nil {
		*v = c.r.Varint()
	} else {
		c.w.Varint(*v)
	}
}

// F64 renders or fills a float64's 8 IEEE-754 bytes.
func (c *Codec) F64(v *float64) {
	if c.r != nil {
		*v = c.r.Float64()
	} else {
		c.w.Float64(*v)
	}
}

// Bool renders or fills a bool as one byte, 0 or 1.
func (c *Codec) Bool(v *bool) {
	if c.r != nil {
		*v = c.r.Bool()
	} else {
		c.w.Bool(*v)
	}
}

// Byte renders or fills one byte.
func (c *Codec) Byte(v *byte) {
	if c.r != nil {
		*v = c.r.Byte()
	} else {
		c.w.Byte(*v)
	}
}

// Text renders or fills a length-prefixed string.
func (c *Codec) Text(v *string) {
	if c.r != nil {
		*v = c.r.Text()
	} else {
		c.w.Text(*v)
	}
}

// Count renders n, or reads a count of elements that each take at least
// size bytes (Reader.Len), so the caller can allocate for it.
func (c *Codec) Count(n, size int) int {
	if c.r != nil {
		return c.r.Len(size)
	}
	c.w.Uvarint(uint64(n))
	return n
}

// Fixed renders n, or reads a uvarint and fails unless it equals n. It
// carries what the receiver already knows — an image version, or the
// length of something it was built with — so a mismatch fails cleanly
// and nothing is sized from the image.
func (c *Codec) Fixed(n int, what string) {
	if c.r == nil {
		c.w.Uvarint(uint64(n))
		return
	}
	if got := c.r.Uvarint(); got != uint64(n) && c.r.Err() == nil {
		c.r.Fail(fmt.Errorf("flat: %s is %d, want %d", what, got, n))
	}
}

// Present renders p, or reads a presence byte.
func (c *Codec) Present(p bool) bool {
	c.Bool(&p)
	return p
}

// Resize gives a decoded slice the count just read, reusing its array
// when it has the capacity. On the rendering side the count is the
// slice's own length and the slice is not even written, so concurrent
// renders of one value do not race. A zero count leaves a nil slice nil.
func Resize[T any](s *[]T, n int) {
	switch {
	case n == len(*s):
	case n <= cap(*s):
		*s = (*s)[:n]
	default:
		*s = make([]T, n)
	}
}

// Uints hands c a variable-length slice of unsigned integers: its count,
// then each element.
func Uints[T ~uint64](c *Codec, s *[]T) {
	Resize(s, c.Count(len(*s), 1))
	for i := range *s {
		if c.r != nil {
			(*s)[i] = T(c.r.Uvarint())
		} else {
			c.w.Uvarint(uint64((*s)[i]))
		}
	}
}

// Map hands c a map in ascending key order: the entry count, then each
// key followed by its value, which visit hands over (values take at
// least one byte). Decoding builds a new map and fails unless the keys
// ascend strictly, so every map has exactly one image.
func Map[V any](c *Codec, m *map[uint64]V, visit func(*Codec, *V)) {
	if c.r != nil {
		n := c.r.Len(2)
		out := make(map[uint64]V, n)
		var prev uint64
		for i := 0; i < n && c.r.Err() == nil; i++ {
			k := c.r.Uvarint()
			if i > 0 && k <= prev {
				c.r.Fail(errors.New("flat: map keys do not ascend"))
			}
			var v V
			visit(c, &v)
			out[k], prev = v, k
		}
		*m = out
		return
	}
	keys := make([]uint64, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		v := (*m)[k]
		c.w.Uvarint(k)
		visit(c, &v)
	}
}
