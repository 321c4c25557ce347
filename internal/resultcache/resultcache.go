// Package resultcache is a persistent, content-addressed store of
// completed simulation results. Every run of this simulator is
// bit-reproducible (the golden fingerprints and the -j1/-j4 output diffs
// pin that), so a Result can be keyed by a cryptographic fingerprint of
// the job's semantic identity — full resolved configuration, workload,
// seeds, sampling parameters, model version — and replayed instead of
// re-simulated. A design-space sweep re-run after touching one
// organization then simulates only that organization's cells; everything
// else is a cache hit.
//
// Reliability contract:
//
//   - Entries are written atomically (temp file + rename), so a crashed
//     or concurrent writer can never leave a half-written entry under a
//     live key. Two writers racing on one key both write identical bytes
//     (the simulation is deterministic); last rename wins.
//   - Every entry carries a format version, its own key, the key's
//     canonical preimage (for auditability), and a checksum of the
//     payload. Corrupt, truncated, version-mismatched or mis-keyed
//     entries are treated as misses and evicted — never surfaced as
//     errors, because the cache must always be allowed to fall back to
//     simulating.
//   - An entry is a flat image (internal/flat) around the Result's own
//     flat image: both decoders accept exactly the bytes their encoders
//     write, and a forged length cannot make them allocate.
//
// Entries are read and written at two levels. Payload and PutPayload
// move an entry's payload bytes — the Encode image of a Result — without
// touching the codec: the sweep service answers a cache hit by streaming
// the verified stored bytes as they are, and encodes a fresh Result once
// for both the store and the stream. Get and Put are the same primitives
// plus Decode and Encode, for in-process callers that want a Result.
//
// The package also provides Flight, an in-process single-flight memo
// that deduplicates identical jobs inside one sweep, and Clone, the
// codec round trip that hands a deduplicated caller its own copy of a
// Result no payload was encoded for.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"taglessdram/internal/flat"
	"taglessdram/internal/system"
)

// Key is the content address of one cached result: the SHA-256 digest of
// the job's canonical preimage.
type Key [sha256.Size]byte

// KeyOf hashes a canonical preimage into its content address.
func KeyOf(preimage string) Key { return sha256.Sum256([]byte(preimage)) }

// String renders the key as lowercase hex (also the entry's file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// entryFormat versions the on-disk envelope layout and the payload codec
// inside it. A mismatch means the entry was written by an incompatible
// build and is evicted as a miss. Format 3 is the flat envelope around
// the Result's flat image (format 2 was gob around gob); because hits
// are streamed to clients without decoding, this stamp is what keeps an
// older payload from reaching one.
const entryFormat = 3

// envelope is one entry, stored as its flat image: the format byte, the
// 32 raw key bytes, the length-prefixed preimage, the payload's 32-byte
// SHA-256 sum, then the length-prefixed payload — Result.MarshalBinary's
// image, verified against sum on every load. The preimage is the
// human-readable canonical job identity the key was hashed from, so an
// entry can always be audited against the job it claims to answer. A
// decoded envelope's preimage and payload alias the file's bytes.
type envelope struct {
	format   byte
	key      Key
	preimage []byte
	sum      [sha256.Size]byte
	payload  []byte
}

func (e *envelope) encode() []byte {
	w := flat.NewWriter(make([]byte, 0, 1+len(e.key)+len(e.sum)+
		2*binary.MaxVarintLen64+len(e.preimage)+len(e.payload)))
	w.Byte(e.format)
	w.Raw(e.key[:])
	w.Blob(e.preimage)
	w.Raw(e.sum[:])
	w.Blob(e.payload)
	return w.Bytes()
}

func decodeEnvelope(data []byte) (envelope, error) {
	var e envelope
	rd := flat.NewReader(data)
	if e.format = rd.Byte(); e.format != entryFormat && rd.Err() == nil {
		return e, fmt.Errorf("resultcache: entry format %d, want %d", e.format, entryFormat)
	}
	copy(e.key[:], rd.Raw(len(e.key)))
	e.preimage = rd.Blob()
	copy(e.sum[:], rd.Raw(len(e.sum)))
	e.payload = rd.Blob()
	if err := rd.Done(); err != nil {
		return e, fmt.Errorf("resultcache: envelope: %w", err)
	}
	return e, nil
}

// Stats are a store's lifetime counters (monotonic, safe to read
// concurrently with cache traffic). The json names are the sweep
// service's wire form of them (sweepapi).
type Stats struct {
	Hits    uint64 `json:"hits"`    // Get or Payload found a valid entry
	Misses  uint64 `json:"misses"`  // Get or Payload found nothing usable
	Stored  uint64 `json:"stored"`  // Put or PutPayload wrote an entry
	Evicted uint64 `json:"evicted"` // corrupt/mismatched entries removed during a lookup
}

// Sub returns the counter deltas from an earlier snapshot to s.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Hits:    s.Hits - earlier.Hits,
		Misses:  s.Misses - earlier.Misses,
		Stored:  s.Stored - earlier.Stored,
		Evicted: s.Evicted - earlier.Evicted,
	}
}

// Store is a directory-backed result cache. Safe for concurrent use by
// any number of goroutines and processes.
type Store struct {
	dir string

	hits, misses, stored, evicted atomic.Uint64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Stored:  s.stored.Load(),
		Evicted: s.evicted.Load(),
	}
}

func (s *Store) path(key Key) string {
	return filepath.Join(s.dir, key.String()+".res")
}

// Payload returns the payload bytes stored under key after verifying the
// entry's format, key and checksum, without decoding them. A missing,
// corrupt, truncated, version-mismatched or mis-keyed entry is a miss
// (damaged entries are also evicted so the slot heals on the next Put);
// Payload never returns an error because the caller can always fall
// back to simulating.
func (s *Store) Payload(key Key) ([]byte, bool) {
	payload, ok := s.load(key)
	if ok {
		s.hits.Add(1)
	}
	return payload, ok
}

// Get loads and decodes the result stored under key: Payload plus
// Decode. A payload that fails to decode is a miss too, and its entry is
// evicted.
func (s *Store) Get(key Key) (*system.Result, bool) {
	payload, ok := s.load(key)
	if !ok {
		return nil, false
	}
	r, err := Decode(payload)
	if err != nil {
		s.evict(key)
		return nil, false
	}
	s.hits.Add(1)
	return r, true
}

// load reads and verifies the entry under key, counting (and evicting)
// everything that is not a usable entry as a miss. Hits are counted by
// the caller once it has accepted the payload.
func (s *Store) load(key Key) ([]byte, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	e, err := verifyEntry(key, data)
	if err != nil {
		s.evict(key)
		return nil, false
	}
	return e.payload, true
}

// evict removes an unusable entry, so a fresh Put replaces it, and counts
// the lookup that found it as a miss.
func (s *Store) evict(key Key) {
	if err := os.Remove(s.path(key)); err == nil {
		s.evicted.Add(1)
	}
	s.misses.Add(1)
}

// verifyEntry validates one on-disk envelope against the key it was
// looked up under: its format, its key and its payload's checksum.
func verifyEntry(key Key, data []byte) (envelope, error) {
	e, err := decodeEnvelope(data)
	if err != nil {
		return e, err
	}
	if e.key != key {
		return e, fmt.Errorf("resultcache: entry keyed %s under %s", e.key, key)
	}
	if sha256.Sum256(e.payload) != e.sum {
		return e, errors.New("resultcache: payload checksum mismatch")
	}
	return e, nil
}

// Put stores a result under key, recording the canonical preimage the
// key was derived from: Encode plus PutPayload.
func (s *Store) Put(key Key, preimage string, r *system.Result) error {
	payload, err := Encode(r)
	if err != nil {
		return err
	}
	return s.PutPayload(key, preimage, payload)
}

// PutPayload stores payload — a Result already rendered by Encode — under
// key, recording the canonical preimage the key was derived from. The
// write is atomic: concurrent readers either see the complete new entry
// or whatever was there before.
func (s *Store) PutPayload(key Key, preimage string, payload []byte) error {
	e := envelope{
		format:   entryFormat,
		key:      key,
		preimage: []byte(preimage),
		sum:      sha256.Sum256(payload),
		payload:  payload,
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(e.encode()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	s.stored.Add(1)
	return nil
}

// Preimage returns the stored canonical preimage of an entry, for
// auditing what job identity a cached result answers. It vouches only
// for an entry the store would serve: a missing, damaged, mis-keyed or
// version-mismatched entry gives ("", false). It neither counts nor
// evicts.
func (s *Store) Preimage(key Key) (string, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return "", false
	}
	e, err := verifyEntry(key, data)
	if err != nil {
		return "", false
	}
	return string(e.preimage), true
}

// Len counts the entries currently on disk.
func (s *Store) Len() int {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.res"))
	if err != nil {
		return 0
	}
	return len(matches)
}

// Encode renders a Result in the cache's own payload codec: its flat
// image (system.Result.MarshalBinary), a function of the Result alone.
// The bytes are exactly what a cache entry's payload carries, so a
// Decode on the far side of any transport (the sweep service streams
// stored payloads base64-coded inside JSON) reconstructs the Result
// bit-identically — the same guarantee a cache hit gives.
func Encode(r *system.Result) ([]byte, error) {
	if r == nil {
		return nil, errors.New("resultcache: encoding a nil Result")
	}
	return r.MarshalBinary()
}

// Decode reverses Encode. It accepts exactly the images Encode writes.
func Decode(payload []byte) (*system.Result, error) {
	r := new(system.Result)
	if err := r.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	return r, nil
}

// Clone deep-copies a result through the cache's own codec, so a cloned
// result carries exactly what a cache hit would.
func Clone(r *system.Result) (*system.Result, error) {
	payload, err := Encode(r)
	if err != nil {
		return nil, err
	}
	return Decode(payload)
}

// Flight deduplicates identical in-flight (and already-completed) jobs
// within one sweep: the first caller of a key runs the function, every
// later caller waits for (or immediately receives) the first caller's
// outcome with shared=true. Completed calls stay memoized for the
// Flight's lifetime, so serial sweeps deduplicate repeated cells too.
// V is whatever a job settles to; every sharer receives the same V, so
// callers that need a private copy of a shared value must make one.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[Key]*call[V]
}

type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// NewFlight returns an empty single-flight memo.
func NewFlight[V any]() *Flight[V] {
	return &Flight[V]{calls: make(map[Key]*call[V])}
}

// Forget drops key's memoized call, so the next Do runs fn again instead
// of replaying the remembered outcome. Callers already waiting on the
// forgotten call still receive its value — they hold the call, not the
// map slot. Long-lived owners (the sweep service keeps one Flight for
// its whole lifetime) forget each key as soon as its run completes: the
// persistent store serves later duplicates, concurrent ones still share
// one execution, and the memo stops pinning every value ever computed —
// including failed calls, which would otherwise replay their error
// forever.
func (f *Flight[V]) Forget(key Key) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
}

// Do runs fn under key, deduplicating against concurrent and past calls
// with the same key. shared reports whether the returned value came
// from another caller's execution. If fn panics, the panic becomes the
// call's error, so every sharer gets an error that names it, and the
// caller that ran fn panics again with the same value.
func (f *Flight[V]) Do(key Key, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.v, true, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	defer close(c.done)
	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("resultcache: shared call panicked: %v", p)
			panic(p)
		}
	}()
	c.v, c.err = fn()
	return c.v, false, c.err
}
