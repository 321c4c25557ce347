package flat

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip writes one value of every kind and reads it back bit
// for bit, floats included.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	w := NewWriter(nil)
	w.Byte(7)
	w.Bool(true)
	w.Uvarint(math.MaxUint64)
	w.Int(math.MinInt)
	w.Int(-3)
	w.Float64(nan)
	w.Float64(math.Copysign(0, -1))
	w.Raw([]byte{1, 2})
	w.Blob([]byte("blob"))
	w.Text("text")
	w.Uvarint(2) // a count of two 8-byte elements
	w.Float64(1)
	w.Float64(2)

	r := NewReader(w.Bytes())
	if v := r.Byte(); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != math.MinInt {
		t.Errorf("Int = %d", v)
	}
	if v := r.Int(); v != -3 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Float64(); math.Float64bits(v) != math.Float64bits(nan) {
		t.Errorf("NaN payload lost: %#x", math.Float64bits(v))
	}
	if v := r.Float64(); !math.Signbit(v) || v != 0 {
		t.Errorf("−0 became %v", v)
	}
	if v := r.Raw(2); !bytes.Equal(v, []byte{1, 2}) {
		t.Errorf("Raw = %v", v)
	}
	if v := r.Blob(); string(v) != "blob" {
		t.Errorf("Blob = %q", v)
	}
	if v := r.Text(); v != "text" {
		t.Errorf("Text = %q", v)
	}
	if n := r.Len(8); n != 2 {
		t.Errorf("Len = %d", n)
	}
	r.Float64()
	r.Float64()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestRejects feeds the Reader bytes no Writer produces: each read must
// fail, and the error must stick.
func TestRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(*Reader)
	}{
		{"short byte", nil, func(r *Reader) { r.Byte() }},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"short varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"padded varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"overlong varint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		{"short float", make([]byte, 7), func(r *Reader) { r.Float64() }},
		{"short raw", []byte{1}, func(r *Reader) { r.Raw(2) }},
		{"blob longer than the bytes left", []byte{3, 'a', 'b'}, func(r *Reader) { r.Blob() }},
		{"count beyond the bytes left", []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Len(8) }},
		{"trailing bytes", []byte{1, 0}, func(r *Reader) { r.Byte() }},
	}
	for _, tc := range cases {
		r := NewReader(tc.data)
		tc.read(r)
		err := r.Done()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		r.Byte()
		if r.Err() != err {
			t.Errorf("%s: a later read replaced the first error", tc.name)
		}
	}
}

// TestCodec runs one visit of every Codec kind in both directions, then
// feeds the decoder images it must refuse: a count the receiver was not
// built with, map keys out of order, a uint32 overflow. A visit's own
// Fail fails either side.
func TestCodec(t *testing.T) {
	type state struct {
		u    uint64
		u32  uint32
		i    int
		i64  int64
		f    float64
		b    bool
		by   byte
		s    string
		list []uint64
		m    map[uint64]uint32
		bad  bool
	}
	visit := func(x *state) func(*Codec) {
		return func(c *Codec) {
			c.Fixed(3, "geometry")
			c.U64(&x.u)
			c.U32(&x.u32)
			c.Int(&x.i)
			c.I64(&x.i64)
			c.F64(&x.f)
			c.Bool(&x.b)
			c.Byte(&x.by)
			c.Text(&x.s)
			Uints(c, &x.list)
			Map(c, &x.m, (*Codec).U32)
			if x.bad {
				c.Fail(errors.New("refused"))
			}
		}
	}
	want := state{u: 1 << 40, u32: 7, i: -5, i64: math.MinInt64, f: 2.5, b: true, by: 9, s: "s",
		list: []uint64{3, 1}, m: map[uint64]uint32{9: 1, 2: 3}}
	img, err := Encode(nil, visit(&want))
	if err != nil {
		t.Fatal(err)
	}
	var got state
	if err := Decode(img, visit(&got)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if _, err := Encode(nil, visit(&state{bad: true})); err == nil {
		t.Error("a visit's Fail did not fail the encoder")
	}
	if err := Decode(img, visit(&state{bad: true})); err == nil {
		t.Error("a visit's Fail did not fail the decoder")
	}

	for name, img := range map[string][]byte{
		"fixed count":     {4},
		"map key order":   append(bytes.Clone(img[:len(img)-4]), 9, 1, 2, 3),
		"uint32 overflow": {3, 0, 0x80, 0x80, 0x80, 0x80, 0x10},
	} {
		if err := Decode(img, visit(new(state))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
