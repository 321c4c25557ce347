package resultcache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"testing"
)

// fuzzKey is the key every FuzzStoreEntry input is stored and looked up
// under; the checked-in corpus entries name it.
var fuzzKey = KeyOf("fuzz entry")

// FuzzStoreEntry writes arbitrary bytes as the entry file under fuzzKey
// and reads it back. The read is either a miss that evicts the file, or
// a hit whose envelope has the current format, names fuzzKey, and whose
// payload matches its checksum. Neither Payload nor Get ever panics.
func FuzzStoreEntry(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(fuzzKey, "fuzz entry", sampleResult()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(fuzzKey))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(fuzzKey), data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok := s.Payload(fuzzKey)
		if !ok {
			if st := s.Stats(); st.Misses != 1 || st.Evicted != 1 || s.Len() != 0 {
				t.Fatalf("miss left stats %+v and %d entries, want 1 miss, 1 eviction, 0 entries", st, s.Len())
			}
			return
		}
		e, err := decodeEnvelope(data)
		if err != nil {
			t.Fatalf("hit on an entry whose envelope does not decode: %v", err)
		}
		if e.format != entryFormat || e.key != fuzzKey ||
			sha256.Sum256(payload) != e.sum || !bytes.Equal(payload, e.payload) {
			t.Fatalf("hit on an unverified entry: format %d, key %s", e.format, e.key)
		}
		if !bytes.Equal(e.encode(), data) {
			t.Fatal("hit on an entry that is not its envelope's own image")
		}
		// Get decodes the verified payload: a hit, or a miss that evicts.
		if _, ok := s.Get(fuzzKey); !ok && s.Len() != 0 {
			t.Fatal("Get missed without evicting the entry")
		}
	})
}
