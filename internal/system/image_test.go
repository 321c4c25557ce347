package system

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"taglessdram/internal/config"
	"taglessdram/internal/dram"
	"taglessdram/internal/lat"
	"taglessdram/internal/obs"
)

// filler sets every field reachable from a value to a distinct non-zero
// value. The first three floats are a NaN with payload bits, −0 and
// +Inf; unsigned integers alternate between short and full-width
// varints. Histograms, whose state is private, are filled through
// Observe.
//
// With exempt nil (a Result) every field must be exported and signed
// integers take both signs and both widths. Otherwise (a component's
// private state) fields reach through unsafe, exempt lists the fields
// to skip ("pkg.Type.field" → reason), signed integers count up from 1
// so they stay valid indices, a slice built with elements keeps its
// length (geometry) while an empty one gets two, and a map gets two
// entries.
type filler struct {
	t       *testing.T
	n       uint64
	floats  int
	exempt  map[string]string
	skipped map[string]bool // the exempt fields met, when non-nil
	ints    int64
}

func (f *filler) next() uint64 {
	f.n++
	if f.n%2 == 1 {
		return f.n // small and odd
	}
	return f.n * 0x9e3779b97f4a7c15 // large and even; an odd factor keeps them distinct
}

// settable returns struct field i of v, reaching unexported fields of a
// component's state through unsafe.
func (f *filler) settable(v reflect.Value, i int, path string) reflect.Value {
	fv := v.Field(i)
	if v.Type().Field(i).IsExported() {
		return fv
	}
	if f.exempt == nil {
		f.t.Fatalf("%s: unexported field the fill cannot reach", path)
	}
	return reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
}

func (f *filler) fill(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Struct:
		if h, ok := v.Addr().Interface().(*lat.Hist); ok {
			for i := 0; i < 3; i++ {
				h.Observe(f.next())
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if key := v.Type().String() + "." + name; f.exempt[key] != "" {
				if f.skipped != nil {
					f.skipped[key] = true
				}
				continue
			}
			f.fill(f.settable(v, i, path+"."+name), path+"."+name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 2, max(2, v.Cap())))
		}
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k, path+"[key]")
			f.fill(e, path+"[value]")
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		f.fill(v.Elem(), path)
	case reflect.String:
		v.SetString(fmt.Sprintf("field %d", f.next()))
	case reflect.Int, reflect.Int64:
		if f.exempt != nil {
			f.ints++
			v.SetInt(f.ints)
		} else {
			v.SetInt(int64(f.next()))
		}
	case reflect.Uint64:
		v.SetUint(f.next())
	case reflect.Uint32:
		v.SetUint(f.next() % (1 << 32))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		specials := []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), math.Inf(1)}
		if f.floats < len(specials) {
			v.SetFloat(specials[f.floats])
		} else {
			f.n++
			v.SetFloat(float64(f.n) + 0.5)
		}
		f.floats++
	default:
		f.t.Fatalf("%s: no fill rule for kind %v — extend filler", path, v.Kind())
	}
}

// sameBits compares two values field by field, floats by their bits and
// private state included, skipping the fields exempt lists, and reports
// the first difference.
func sameBits(a, b reflect.Value, path string, exempt map[string]string) error {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if _, ok := exempt[a.Type().String()+"."+name]; ok {
				continue
			}
			if err := sameBits(a.Field(i), b.Field(i), path+"."+name, exempt); err != nil {
				return err
			}
		}
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() || a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return fmt.Errorf("%s: length %d (nil %t) became %d", path, a.Len(), a.Kind() == reflect.Slice && a.IsNil(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), exempt); err != nil {
				return err
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d entries became %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Errorf("%s: key %v lost", path, k)
			}
			if err := sameBits(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k), exempt); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: nil %t became nil %t", path, a.IsNil(), b.IsNil())
			}
			return nil
		}
		return sameBits(a.Elem(), b.Elem(), path, exempt)
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf("%s: %q became %q", path, a.String(), b.String())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d became %d", path, a.Int(), b.Int())
		}
	case reflect.Uint64, reflect.Uint32:
		if a.Uint() != b.Uint() {
			return fmt.Errorf("%s: %d became %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf("%s: %t became %t", path, a.Bool(), b.Bool())
		}
	case reflect.Float64:
		if x, y := math.Float64bits(a.Float()), math.Float64bits(b.Float()); x != y {
			return fmt.Errorf("%s: bits %#x became %#x", path, x, y)
		}
	default:
		return fmt.Errorf("%s: no comparison rule for kind %v", path, a.Kind())
	}
	return nil
}

// TestResultImageCoversEveryField is the dropped-field firewall: a
// Result with every reachable field set to a distinct non-zero value —
// nested Epochs and BankStats, Sampled, both histograms — must survive
// its image bit for bit, so a field added to Result but not to visit
// fails here.
func TestResultImageCoversEveryField(t *testing.T) {
	var want Result
	f := &filler{t: t}
	f.fill(reflect.ValueOf(&want).Elem(), "Result")
	img, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := got.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if err := sameBits(reflect.ValueOf(want), reflect.ValueOf(got), "Result", nil); err != nil {
		t.Fatal(err)
	}
	if again, _ := got.MarshalBinary(); !bytes.Equal(again, img) {
		t.Fatal("the decoded Result renders different bytes")
	}
}

// pinnedResult is the fixed Result whose image TestResultImagePinned
// pins.
func pinnedResult() *Result {
	r := &Result{
		Workload:       "mcf",
		Design:         config.Tagless,
		Cycles:         1000,
		Instructions:   2500,
		IPC:            2.5,
		PerCoreIPC:     []float64{2.5},
		L3Accesses:     300,
		InPkgBankStats: []dram.BankStat{{Hits: 1, Confls: 2, BusyTicks: 3}},
		InPkgChannels:  1,
		OffPkgChannels: -1,
		Sampled:        &SampledInfo{Windows: 4, IPC: math.Copysign(0, -1)},
		Epochs:         []obs.Epoch{{Index: 1, Refs: 7, L3HitRate: math.Inf(1)}},
		EpochsDropped:  2,
	}
	r.Latency.L3.Cycles[lat.InPkgService] = 130
	r.Latency.L3.Commits, r.Latency.L3.Measured = 1, 130
	r.Latency.L3Lat.Observe(130)
	r.Ctrl.Walks = 9
	r.MissKindCount[3] = 5
	return r
}

// TestResultImagePinned pins the exact bytes of one Result's image. The
// result cache stores these bytes and the sweep service streams them to
// clients without decoding, so changing the image requires bumping
// resultcache's entryFormat in the same change; update this pin only
// together with that bump.
func TestResultImagePinned(t *testing.T) {
	img, err := pinnedResult().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hist := func(buckets, tail string) string { // a lat.Hist image
		return "01" + buckets + tail
	}
	zeros := func(n int) string { return string(bytes.Repeat([]byte("00"), n)) }
	const f0, f25 = "0000000000000000", "0000000000000440" // float64 0 and 2.5
	want := "01" +                                         // version
		"036d6366" + "06" + // Workload "mcf", Design 3 (zigzag)
		"e807" + "c413" + f25 + // Cycles, Instructions, IPC
		"01" + f25 + // PerCoreIPC
		f0 + "ac02" + "00" + f0 + // AvgL3Latency, L3Accesses, L3Hits, L3HitRate
		"00" + "00" + f0 + "00" + // TLBLookups, TLBMisses, TLBMissRate, NCAccesses
		"0000" + // SharedTLBInvalidations, CtxSwitches
		f0 + f0 + f0 + f0 + f0 + f0 + // Energy, EDPJs, Seconds
		f0 + f0 + "0000" + // row hit rates, bytes
		zeros(5) + "8201" + zeros(6) + "01" + "8201" + "00" + // Latency.L3: Cycles, Commits, Measured, Residue
		zeros(15) + zeros(15) + // Latency.Handler, Latency.Bg
		hist(zeros(8)+"01"+zeros(56), "01"+"8201"+"8201") + // L3Lat: one sample of 130
		hist(zeros(65), "000000") + // HandlerLat
		"01" + "010203" + "00" + // InPkgBankStats, OffPkgBankStats
		"0000" + "02" + "01" + // bus busy, InPkgChannels 1, OffPkgChannels -1
		"09" + zeros(10) + // Ctrl
		f0 + f0 + f0 + f0 + "000000" + "05" + // MissKindMean, MissKindCount
		f0 + "0000" + // SRAMHitRate, References, KernelEvents
		"01" + "04" + "00000000" + "0000000000000080" + f0 + // Sampled: Windows 4, IPC −0
		"01" + "02" + "00" + "07" + "0000" + f0 + "0000" + "000000000000f07f" + // Epochs[0] up to L3HitRate +Inf
		"0000" + f0 + "0000" + "0000" + f0 + f0 + f0 + f0 + f0 + zeros(11) + // rest of Epochs[0]
		"04" // EpochsDropped 2
	if got := hex.EncodeToString(img); got != want {
		t.Fatalf("Result image changed:\n got %s\nwant %s", got, want)
	}
}

// forgedEpochs is an image whose Epochs count is 2^40 with one byte
// left: decoding it must fail without allocating for the count.
func forgedEpochs(tb testing.TB) []byte {
	img, err := (&Result{}).MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.HasSuffix(img, []byte{0, 0}) {
		tb.Fatalf("an empty Result's image ends %x, want the Epochs count and EpochsDropped", img[len(img)-2:])
	}
	return append(binary.AppendUvarint(img[:len(img)-2], 1<<40), 0)
}

// FuzzResultImage: any input either fails to decode, or decodes to a
// Result whose image is exactly the input. The decoder never panics, and
// a forged count fails before anything is allocated for it.
func FuzzResultImage(f *testing.F) {
	forged := forgedEpochs(f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r Result
	err := r.UnmarshalBinary(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		f.Fatal("an image with 2^40 epochs decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		f.Fatalf("rejecting a forged count allocated %d bytes", grew)
	}
	f.Add(forged)
	for _, r := range []*Result{{}, pinnedResult(), runSampled(f, config.Tagless, 20_000, 50_000)} {
		img, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		img, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, data) {
			t.Fatalf("decoded %x, re-encodes as %x", data, img)
		}
	})
}
