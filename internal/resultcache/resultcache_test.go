package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"taglessdram/internal/dram"
	"taglessdram/internal/system"
)

func sampleResult() *system.Result {
	return &system.Result{
		Workload:   "unit",
		References: 12345,
		Cycles:     67890,
		PerCoreIPC: []float64{1.25, 0.75},
	}
}

func TestKeyOf(t *testing.T) {
	a, b := KeyOf("preimage-a"), KeyOf("preimage-b")
	if a == b {
		t.Fatal("distinct preimages share a key")
	}
	if a != KeyOf("preimage-a") {
		t.Fatal("KeyOf not deterministic")
	}
	if len(a.String()) != 64 {
		t.Fatalf("key hex %q not 64 chars", a)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("job-1")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	want := sampleResult()
	if err := s.Put(key, "job-1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got == want {
		t.Fatal("Get returned the stored pointer, not a decoded copy")
	}
	if got.Workload != want.Workload || got.References != want.References ||
		got.Cycles != want.Cycles || len(got.PerCoreIPC) != 2 || got.PerCoreIPC[0] != 1.25 {
		t.Fatalf("round trip mangled the result: %+v", got)
	}
	if pre, ok := s.Preimage(key); !ok || pre != "job-1" {
		t.Fatalf("Preimage = %q, %v; want job-1, true", pre, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if st := s.Stats(); st != (Stats{Hits: 1, Misses: 1, Stored: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// rewriteEnvelope loads the entry under key and replaces it with the
// bytes damage makes of its decoded envelope — building precisely
// damaged entries the loader must reject.
func rewriteEnvelope(t *testing.T, s *Store, key Key, damage func(envelope) []byte) {
	t.Helper()
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), damage(e), 0o644); err != nil {
		t.Fatal(err)
	}
}

// formatTwoEntry renders an entry the way entry format 2 did: a gob
// envelope around a gob payload. The types mirror the old envelope and
// the fields of system.Result they stand in for; gob matches fields by
// name.
func formatTwoEntry(t testing.TB, key Key, preimage string) []byte {
	t.Helper()
	type result struct {
		Workload   string
		Cycles     uint64
		PerCoreIPC []float64
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(result{Workload: "unit", Cycles: 67890, PerCoreIPC: []float64{1.25, 0.75}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(payload.Bytes()); err == nil {
		t.Fatal("the current codec decoded a gob payload")
	}
	type envelope struct {
		Format   int
		Key      string
		Preimage string
		Sum      [sha256.Size]byte
		Payload  []byte
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(envelope{
		Format: 2, Key: key.String(), Preimage: preimage,
		Sum: sha256.Sum256(payload.Bytes()), Payload: payload.Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDamagedEntriesMissAndEvict(t *testing.T) {
	previous := formatTwoEntry(t, KeyOf("job"), "job")
	cases := []struct {
		name   string
		damage func(envelope) []byte
		// undecodable: the envelope verifies and only its payload fails
		// to decode. Payload, which hands out verified bytes without
		// decoding them, serves such an entry; Get misses.
		undecodable bool
	}{
		{"wrong-format", func(e envelope) []byte { e.format = entryFormat + 1; return e.encode() }, false},
		{"previous-format", func(envelope) []byte { return previous }, false},
		{"mis-keyed", func(e envelope) []byte { e.key = KeyOf("some other job"); return e.encode() }, false},
		{"checksum-mismatch", func(e envelope) []byte { e.payload[0] ^= 0xff; return e.encode() }, false},
		{"trailing-bytes", func(e envelope) []byte { return append(e.encode(), 0) }, false},
		{"payload-garbage", func(e envelope) []byte {
			e.payload = []byte("junk")
			e.sum = sha256.Sum256(e.payload) // matching checksum, undecodable payload
			return e.encode()
		}, true},
	}
	lookups := []struct {
		name   string
		lookup func(*Store, Key) bool
	}{
		{"Get", func(s *Store, k Key) bool { _, ok := s.Get(k); return ok }},
		{"Payload", func(s *Store, k Key) bool { _, ok := s.Payload(k); return ok }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, lk := range lookups {
				t.Run(lk.name, func(t *testing.T) {
					s, err := Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					key := KeyOf("job")
					if err := s.Put(key, "job", sampleResult()); err != nil {
						t.Fatal(err)
					}
					rewriteEnvelope(t, s, key, tc.damage)
					if _, ok := s.Preimage(key); ok != tc.undecodable {
						t.Fatalf("Preimage vouches %t for an entry the store verifies %t", ok, tc.undecodable)
					}

					if tc.undecodable && lk.name == "Payload" {
						if !lk.lookup(s, key) {
							t.Fatal("Payload refused a verified entry")
						}
						return
					}
					if lk.lookup(s, key) {
						t.Fatal("damaged entry served as a hit")
					}
					if s.Len() != 0 {
						t.Fatal("damaged entry not evicted")
					}
					if st := s.Stats(); st.Evicted != 1 || st.Misses != 1 || st.Hits != 0 {
						t.Fatalf("stats = %+v, want 1 eviction, 1 miss, 0 hits", st)
					}
					// The slot heals on the next Put.
					if err := s.Put(key, "job", sampleResult()); err != nil {
						t.Fatal(err)
					}
					if !lk.lookup(s, key) {
						t.Fatal("miss after healing Put")
					}
				})
			}
		})
	}
}

// TestPreimageVouchesOnlyForServedEntries copies one job's entry file to
// another job's path: the store refuses to serve it there, so Preimage
// must not vouch for it either.
func TestPreimageVouchesOnlyForServedEntries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := KeyOf("job-a"), KeyOf("job-b")
	if err := s.Put(a, "job-a", sampleResult()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(b), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if pre, ok := s.Preimage(b); ok || pre != "" {
		t.Fatalf("Preimage(b) = %q, %t for job-a's entry; want \"\", false", pre, ok)
	}
	if _, ok := s.Payload(b); ok {
		t.Fatal("Payload(b) served job-a's entry")
	}
	if pre, ok := s.Preimage(a); !ok || pre != "job-a" {
		t.Fatalf("Preimage(a) = %q, %t; want job-a, true", pre, ok)
	}
}

func TestRawCorruptionMissesAndEvicts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("job")
	if err := s.Put(key, "job", sampleResult()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("stats = %+v, want the truncated entry evicted", st)
	}
}

func TestClone(t *testing.T) {
	orig := sampleResult()
	c, err := Clone(orig)
	if err != nil {
		t.Fatal(err)
	}
	if c == orig {
		t.Fatal("Clone returned the same pointer")
	}
	c.PerCoreIPC[0] = 99
	if orig.PerCoreIPC[0] == 99 {
		t.Fatal("Clone shares backing storage with the original")
	}
}

func TestFlightDedupsConcurrentAndCompletedCalls(t *testing.T) {
	f := NewFlight[*system.Result]()
	key := KeyOf("job")
	var calls, shares int
	var mu sync.Mutex
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, shared, err := f.Do(key, func() (*system.Result, error) {
				<-gate // hold the leader so every follower queues up
				mu.Lock()
				calls++
				mu.Unlock()
				return sampleResult(), nil
			})
			if err != nil || r == nil {
				t.Errorf("Do: %v, %v", r, err)
			}
			if shared {
				mu.Lock()
				shares++
				mu.Unlock()
			}
		}()
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if shares != 7 {
		t.Fatalf("%d callers reported shared, want 7", shares)
	}

	// Completed calls stay memoized: a later caller shares without running.
	_, shared, err := f.Do(key, func() (*system.Result, error) {
		t.Fatal("memoized key re-ran fn")
		return nil, nil
	})
	if err != nil || !shared {
		t.Fatalf("memoized Do = shared %t, err %v", shared, err)
	}

	// Errors memoize too, and distinct keys don't collide.
	boom := errors.New("boom")
	if _, _, err := f.Do(KeyOf("bad"), func() (*system.Result, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, shared, err := f.Do(KeyOf("bad"), func() (*system.Result, error) { return sampleResult(), nil }); !shared || err != boom {
		t.Fatalf("memoized error call = shared %t, err %v", shared, err)
	}
}

// TestFlightPanicFailsSharers: a waiter sharing a call whose leader
// panics gets an error that names the panic, not a zero value with a nil
// error, and the leader still panics with the original value.
func TestFlightPanicFailsSharers(t *testing.T) {
	f := NewFlight[*system.Result]()
	key := KeyOf("job")
	entered, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan any)
	go func() {
		defer func() { leader <- recover() }()
		f.Do(key, func() (*system.Result, error) {
			close(entered)
			<-gate
			panic("boom")
		})
	}()
	<-entered
	type outcome struct {
		r      *system.Result
		shared bool
		err    error
	}
	waiter := make(chan outcome)
	go func() {
		r, shared, err := f.Do(key, func() (*system.Result, error) {
			t.Error("the waiter ran fn")
			return nil, nil
		})
		waiter <- outcome{r, shared, err}
	}()
	// A waiter that reaches Do after the leader failed reads the same
	// memoized call, so the outcome below does not depend on this pause;
	// it only makes the blocked waiter the usual case.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v, want the original panic", p)
	}
	got := <-waiter
	if got.r != nil || !got.shared || got.err == nil || !strings.Contains(got.err.Error(), "boom") {
		t.Fatalf("waiter got (%v, shared %t, %v), want a shared error naming the panic", got.r, got.shared, got.err)
	}
}

func TestConcurrentPutGetOneKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("contended")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Put(key, "contended", sampleResult()); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if r, ok := s.Get(key); ok && r.References != 12345 {
					t.Errorf("torn read: %+v", r)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestForgetDropsMemoButNotWaiters: Forget makes the next Do run fn
// again (both after success and after a memoized error), while callers
// already blocked on the forgotten call still receive its outcome.
func TestForgetDropsMemoButNotWaiters(t *testing.T) {
	f := NewFlight[*system.Result]()
	key := KeyOf("job")

	// Memoized success re-runs after Forget.
	if _, _, err := f.Do(key, func() (*system.Result, error) { return sampleResult(), nil }); err != nil {
		t.Fatal(err)
	}
	f.Forget(key)
	reran := false
	if _, shared, err := f.Do(key, func() (*system.Result, error) {
		reran = true
		return sampleResult(), nil
	}); err != nil || shared {
		t.Fatalf("post-Forget Do = shared %t, err %v", shared, err)
	}
	if !reran {
		t.Fatal("forgotten key replayed the old call")
	}

	// Memoized errors are forgettable too — a long-lived Flight must not
	// replay a transient failure forever.
	bad := KeyOf("bad")
	boom := errors.New("boom")
	f.Do(bad, func() (*system.Result, error) { return nil, boom })
	f.Forget(bad)
	if _, _, err := f.Do(bad, func() (*system.Result, error) { return sampleResult(), nil }); err != nil {
		t.Fatalf("error stayed memoized across Forget: %v", err)
	}

	// Forgetting a call mid-flight closes its dedup window: a later Do
	// starts a fresh execution while the forgotten leader completes
	// independently (its Do still returns its own result).
	gate := make(chan struct{})
	entered := make(chan struct{})
	slow := KeyOf("slow")
	var wg sync.WaitGroup
	wg.Add(1)
	leaderOK := false
	go func() {
		defer wg.Done()
		r, shared, err := f.Do(slow, func() (*system.Result, error) {
			close(entered)
			<-gate
			return sampleResult(), nil
		})
		leaderOK = r != nil && !shared && err == nil
	}()
	<-entered
	f.Forget(slow)
	second := false
	if _, shared, err := f.Do(slow, func() (*system.Result, error) {
		second = true
		return sampleResult(), nil
	}); err != nil || shared {
		t.Fatalf("Do after mid-flight Forget = shared %t, err %v", shared, err)
	}
	if !second {
		t.Fatal("mid-flight Forget did not close the dedup window")
	}
	close(gate)
	wg.Wait()
	if !leaderOK {
		t.Fatal("forgotten leader lost its own result")
	}
}

// TestEncodeDecodeRoundTrip pins the exported codec: Decode(Encode(r))
// carries exactly what a cache hit would (the sweep service streams
// results through this pair).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleResult()
	want.InPkgBankStats = []dram.BankStat{}
	payload, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != want.Workload || got.References != want.References ||
		got.Cycles != want.Cycles || len(got.PerCoreIPC) != 2 || got.PerCoreIPC[1] != 0.75 {
		t.Fatalf("round trip mangled the result: %+v", got)
	}
	if got.InPkgBankStats != nil {
		t.Fatal("an empty slice decoded to a non-nil one")
	}
	if _, err := Decode([]byte("junk")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
	if _, err := Encode(nil); err == nil {
		t.Fatal("Encode accepted a nil Result")
	}
}

// TestStatsRaceFreeUnderTraffic pins the Stats counters as safe to read
// concurrently with cache traffic — the -progress callback reads
// hit/miss counts from worker goroutines mid-sweep. The assertion is the
// race detector itself (CI runs this file under -race) plus monotonic
// snapshots.
func TestStatsRaceFreeUnderTraffic(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			key := KeyOf(string(rune('a' + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					s.Put(key, "traffic", sampleResult())
				}
				s.Get(key)
				s.Get(KeyOf("always-missing"))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev Stats
			for i := 0; i < 2000; i++ {
				st := s.Stats()
				if st.Hits < prev.Hits || st.Misses < prev.Misses ||
					st.Stored < prev.Stored || st.Evicted < prev.Evicted {
					t.Errorf("stats went backwards: %+v -> %+v", prev, st)
					return
				}
				prev = st
			}
		}()
	}
	// The readers drive the test's duration; the writers stop when the
	// readers have seen their fill of snapshots.
	readers.Wait()
	close(stop)
	writers.Wait()
}
