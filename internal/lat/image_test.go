package lat

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"testing"

	"taglessdram/internal/flat"
)

// pinnedHist is the fixed histogram whose image TestHistImagePinned pins.
func pinnedHist() *Hist {
	var h Hist
	for _, v := range []uint64{0, 3, 7, 7, 200, 1 << 20} {
		h.Observe(v)
	}
	return &h
}

// image renders h's standalone image.
func image(h *Hist) []byte {
	img, _ := flat.Encode(nil, h.Visit)
	return img
}

// decode reads a standalone image into h; trailing bytes fail.
func decode(h *Hist, data []byte) error { return flat.Decode(data, h.Visit) }

// TestHistImagePinned pins the exact bytes of one histogram's image.
// The result cache stores these bytes and the sweep service streams them
// to clients without decoding, so changing the image layout requires
// bumping resultcache's entryFormat in the same change; update this pin
// only together with that bump.
func TestHistImagePinned(t *testing.T) {
	img := image(pinnedHist())
	const want = "01" + // version
		"01000102000000000100000000000000000000000001" + // buckets 0..21: 1 zero, 1 in [2,3], 2 in [4,7], 1 in [128,255], 1 in [2^20,2^21)
		"00000000000000000000000000000000000000000000000000000000000000000000000000000000000000" + // buckets 22..64: empty
		"06" + // total
		"d98140" + // sum 1048793
		"808040" // max 1<<20
	if got := hex.EncodeToString(img); got != want {
		t.Fatalf("histogram image changed:\n got %s\nwant %s", got, want)
	}
}

// TestHistImageRejectsNestedGob builds the histogram's previous
// serialized form — a nested gob stream of its fields — and checks that
// the flat decoder refuses it instead of misreading it.
func TestHistImageRejectsNestedGob(t *testing.T) {
	type histWire struct {
		Counts [NumBuckets]uint64
		Total  uint64
		Sum    uint64
		Max    uint64
	}
	h := pinnedHist()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(histWire{Counts: h.counts, Total: h.total, Sum: h.sum, Max: h.max}); err != nil {
		t.Fatal(err)
	}
	var got Hist
	if err := decode(&got, buf.Bytes()); err == nil {
		t.Fatal("flat decoder accepted a nested-gob histogram image")
	}
	if got != (Hist{}) {
		t.Fatalf("rejected image still wrote the histogram: %+v", got)
	}
}

// FuzzHistDecode: any input either fails to decode, or decodes to a
// histogram whose image is exactly the input. The decoder never panics.
// The checked-in corpus (testdata/fuzz/FuzzHistDecode) holds the images
// it must reject: an unknown version, a short image, trailing bytes, a
// padded or overlong varint, the old nested gob stream.
func FuzzHistDecode(f *testing.F) {
	for _, h := range []*Hist{{}, pinnedHist()} {
		f.Add(image(h))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Hist
		if err := decode(&h, data); err != nil {
			return
		}
		if img := image(&h); !bytes.Equal(img, data) {
			t.Fatalf("decoded %x, re-encodes as %x", data, img)
		}
	})
}
