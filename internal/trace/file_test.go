package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	p := testProfile()
	p.SharedFrac = 0.1
	p.SingletonFrac = 0.2
	g := NewGenerator(p, 42)
	var buf bytes.Buffer
	const n = 5000
	if err := Record(&buf, g, n); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	// The recorded stream must equal a fresh generation.
	g2 := NewGenerator(p, 42)
	for i, a := range got {
		if want := g2.Next(); a != want {
			t.Fatalf("record %d = %+v, want %+v", i, a, want)
		}
	}
}

func TestReplayWraps(t *testing.T) {
	accesses := []Access{
		{VAddr: 0x1000, Gap: 3},
		{VAddr: 0x2000, Write: true},
	}
	r, err := NewReplay(accesses)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	for i := 0; i < 5; i++ {
		a := r.Next()
		if a != accesses[i%2] {
			t.Fatalf("replay %d = %+v", i, a)
		}
	}
	if r.Wraps != 2 {
		t.Fatalf("wraps = %d, want 2", r.Wraps)
	}
}

func TestReplayEmpty(t *testing.T) {
	if _, err := NewReplay(nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"short":       []byte("TD"),
		"bad magic":   []byte("NOPE00000000000000"),
		"truncated":   append([]byte("TDCT"), 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0),
		"bad version": append([]byte("TDCT"), 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := ReadAll(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadAllRejectsHugeCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("TDCT")
	buf.Write([]byte{1, 0, 0, 0})                // version
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}) // absurd count
	if _, err := ReadAll(&buf); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("err = %v", err)
	}
}

// TestReadAllForgedCount feeds a 16-byte trace whose header claims
// 2^32 records, the largest count ReadAll accepts, and holds none: the
// reader must fail on the missing records instead of allocating for
// all of them up front.
func TestReadAllForgedCount(t *testing.T) {
	forged := append([]byte("TDCT"), 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
	if _, err := ReadAll(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), "record 0") {
		t.Fatalf("err = %v, want a missing record 0", err)
	}
}

// TestReadAllRejectsOverflowingGap: a gap that does not fit in an int
// is an error, not a negative instruction count.
func TestReadAllRejectsOverflowingGap(t *testing.T) {
	data := append([]byte("TDCT"), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	data = append(data, 0, 0) // flags, vaddr
	data = binary.AppendUvarint(data, 1<<63)
	if _, err := ReadAll(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "overflows int") {
		t.Fatalf("err = %v, want an overflowing gap", err)
	}
}

// FuzzReadAll: any bytes parse to an error or to accesses, never a
// panic or an out-of-memory crash, and accepted accesses come back
// unchanged through Record and ReadAll.
func FuzzReadAll(f *testing.F) {
	var valid bytes.Buffer
	if err := Record(&valid, NewGenerator(testProfile(), 7), 16); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadAll(bytes.NewReader(data))
		if err != nil || len(got) == 0 {
			return
		}
		for i, a := range got {
			if a.Gap < 0 {
				t.Fatalf("access %d has negative gap %d", i, a.Gap)
			}
		}
		rep, err := NewReplay(got)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Record(&buf, rep, uint64(len(got))); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-reading %d recorded accesses: %v", len(got), err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatal("accesses changed through Record and ReadAll")
		}
	})
}

// Property: any slice of accesses with bounded fields round-trips exactly
// through the file format.
func TestFileFormatRoundTripProperty(t *testing.T) {
	f := func(vaddrs []uint64, gaps []uint16, flags []uint8) bool {
		n := len(vaddrs)
		if len(gaps) < n {
			n = len(gaps)
		}
		if len(flags) < n {
			n = len(flags)
		}
		if n == 0 {
			return true
		}
		in := make([]Access, n)
		for i := 0; i < n; i++ {
			in[i] = Access{
				VAddr:     vaddrs[i],
				Gap:       int(gaps[i]),
				Write:     flags[i]&1 != 0,
				LowReuse:  flags[i]&2 != 0,
				Dependent: flags[i]&4 != 0,
				Shared:    flags[i]&8 != 0,
			}
		}
		src, _ := NewReplay(in)
		var buf bytes.Buffer
		if err := Record(&buf, src, uint64(n)); err != nil {
			return false
		}
		out, err := ReadAll(&buf)
		if err != nil || len(out) != n {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
