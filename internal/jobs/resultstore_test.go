package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func testKey(n int) Key {
	return Spec{Workload: fmt.Sprintf("wl%d", n), Mode: ModeFunctional, Seed: int64(n)}.Key()
}

// fakeResult stands in for the server's RunResult: nested structure,
// numeric fields, slices — enough to catch serialization sloppiness.
type fakeResult struct {
	Workload string   `json:"workload"`
	Cycles   int64    `json:"cycles"`
	Counts   []uint64 `json:"counts"`
	Nested   struct {
		Hits uint64 `json:"hits"`
	} `json:"nested"`
}

func sampleResult(n int) *fakeResult {
	r := &fakeResult{Workload: fmt.Sprintf("wl%d", n), Cycles: int64(1000 * n), Counts: []uint64{1, 2, 3}}
	r.Nested.Hits = uint64(n)
	return r
}

func TestResultStoreRoundTrip(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	key := testKey(1)
	want := sampleResult(1)
	if err := s.Put(key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	raw, ok := s.Get(key)
	if !ok {
		t.Fatal("Get missed a stored result")
	}
	// The stored JSON must be the value's canonical serialization: decoding
	// yields a deep-equal value, and re-marshalling yields identical bytes.
	var got fakeResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("stored payload does not decode: %v", err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	canonical, _ := json.Marshal(want)
	if !bytes.Equal(raw, canonical) {
		t.Fatalf("stored bytes differ from canonical JSON:\n got %s\nwant %s", raw, canonical)
	}
	if st := s.Stats(); st.Puts != 1 || st.Hits != 1 || st.Files != 1 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !resultFormat.Sync {
		t.Fatal("result puts must fsync before rename: the journal's completed record relies on it")
	}
}

func TestResultStorePutIsIdempotent(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	for i := 0; i < 3; i++ {
		if err := s.Put(key, sampleResult(1)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Puts != 1 || st.Files != 1 {
		t.Fatalf("repeated Put not a no-op: %+v", st)
	}
}

func TestResultStoreMiss(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(404)); ok {
		t.Fatal("Get hit on an empty store")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

// TestResultStoreCorruptionDropped checks the wrapper's view of an invalid
// file (the framing cases themselves live in the blobstore suite): the Get
// is a counted miss, the file is gone, and nothing stale is returned.
func TestResultStoreCorruptionDropped(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":      func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":       func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"bad magic":      func(b []byte) []byte { b[0] ^= 1; return b },
		"empty file":     func([]byte) []byte { return nil },
		"future version": func(b []byte) []byte { b[len(resultFormat.Magic)]++; return b },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, err := OpenResultStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey(7)
			if err := s.Put(key, sampleResult(7)); err != nil {
				t.Fatal(err)
			}
			path := resultPath(s, key)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if raw, ok := s.Get(key); ok || raw != nil {
				t.Fatalf("Get returned a corrupt result: %q", raw)
			}
			if s.Has(key) {
				t.Fatal("corrupt file not deleted")
			}
			if st := s.Stats(); st.Dropped != 1 || st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("stats = %+v, want 1 dropped / 1 miss", st)
			}
		})
	}
}

// TestResultStoreEvictionUnderBudget checks the byte budget reaches the
// store: the oldest results go, the just-written one stays.
func TestResultStoreEvictionUnderBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenResultStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), sampleResult(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Files != 1 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 1 file / 2 evictions", st)
	}
	if !s.Has(testKey(2)) {
		t.Fatal("just-written result evicted")
	}
}

// TestResultStoreConcurrentAccess runs Put/Get from many goroutines under
// -race: every Get is either a miss or the canonical JSON of the result.
func TestResultStoreConcurrentAccess(t *testing.T) {
	s, err := OpenResultStore(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := testKey(i % 10)
				if err := s.Put(k, sampleResult(i%10)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if raw, ok := s.Get(k); ok && !bytes.Equal(raw, mustJSON(t, sampleResult(i%10))) {
					t.Errorf("concurrent Get returned %s", raw)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Hits+st.Misses != workers*40 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResultStoreIgnoresForeignFiles keeps the scan and eviction away
// from files the store does not own.
func TestResultStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "foreign.dat"), make([]byte, 1<<12), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenResultStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), sampleResult(1)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Files != 1 {
		t.Fatalf("foreign file counted: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "foreign.dat")); err != nil {
		t.Fatal("eviction removed a foreign file")
	}
}

// resultPath is where the store keeps key's result.
func resultPath(s *ResultStore, key Key) string {
	return filepath.Join(s.Dir(), key.String()+resultFormat.Ext)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
