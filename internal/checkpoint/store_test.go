package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"critload/internal/blobstore"
)

// The framing, validate-on-read and eviction robustness suite lives in
// internal/blobstore; these tests cover what the checkpoint wrapper adds:
// index naming, the Meta header, Best's budget selection and the stats view.

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("workload=2mm size=32 seed=7"))
	meta := Meta{Index: 3, Cycle: 12345, SkippedCycles: 1000, WarpInsts: 678}
	payload := []byte("snapshot-bytes")
	if err := s.Save(key, meta, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), key.String()+".k000003.ckpt")); err != nil {
		t.Fatalf("checkpoint not stored as <key>.k<index>.ckpt: %v", err)
	}
	if !s.Has(key, 3) {
		t.Fatal("Has(3) = false after Save")
	}
	if s.Has(key, 2) {
		t.Fatal("Has(2) = true without a save")
	}
	m, p, err := s.Load(key, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m != meta || !bytes.Equal(p, payload) {
		t.Fatalf("Load = %+v %q, want %+v %q", m, p, meta, payload)
	}
	if _, _, err := s.Load(key, 9); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Load(9) = %v, want ErrNotFound", err)
	}
	if format.Sync {
		t.Fatal("checkpoint saves must not fsync: sweeps write hundreds of MB of them")
	}
}

func TestStoreRejectsIndexZero(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	if err := s.Save(testKey(1), Meta{Index: 0}, nil); err == nil {
		t.Fatal("Save(index 0) succeeded; the initial state must never be stored")
	}
}

func TestStoreBestPicksDeepestValid(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	key := testKey(2)
	for i, m := range []Meta{
		{Index: 1, Cycle: 100, WarpInsts: 10},
		{Index: 2, Cycle: 200, WarpInsts: 20},
		{Index: 3, Cycle: 300, WarpInsts: 30},
	} {
		if err := s.Save(key, m, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Unlimited budgets: deepest wins.
	m, _, ok := s.Best(key, 0, 0)
	if !ok || m.Index != 3 {
		t.Fatalf("Best(0,0) = %+v ok=%v, want index 3", m, ok)
	}
	// A warp-instruction budget of 25 invalidates index 3 (30 ≥ 25) but not 2.
	m, _, ok = s.Best(key, 25, 0)
	if !ok || m.Index != 2 {
		t.Fatalf("Best(25,0) = %+v ok=%v, want index 2", m, ok)
	}
	// Budget equal to a boundary's count invalidates that boundary (strict <).
	m, _, ok = s.Best(key, 20, 0)
	if !ok || m.Index != 1 {
		t.Fatalf("Best(20,0) = %+v ok=%v, want index 1", m, ok)
	}
	// A cycle limit below every boundary: cold start.
	if _, _, ok := s.Best(key, 0, 50); ok {
		t.Fatal("Best with tiny cycle limit returned a checkpoint")
	}
	// A different key: cold start.
	if _, _, ok := s.Best(testKey(3), 0, 0); ok {
		t.Fatal("Best under a foreign key returned a checkpoint")
	}
	// Budget-excluded boundaries stay on disk for larger-budget runs.
	if !s.Has(key, 3) {
		t.Fatal("Best removed a valid checkpoint that merely exceeded the budget")
	}
	st := s.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Saves != 3 || st.Files != 3 {
		t.Fatalf("stats = %+v, want 3 hits / 2 misses / 3 saves / 3 files", st)
	}
}

func TestStoreDropsCorruptFilesAndFallsBack(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	key := testKey(4)
	good := []byte("good-payload")
	if err := s.Save(key, Meta{Index: 1, Cycle: 10}, good); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(key, Meta{Index: 2, Cycle: 20}, []byte("bad-payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), key.String()+".k000002.ckpt")
	b, _ := os.ReadFile(path)
	b[len(b)-40] ^= 0xFF // inside the payload, ahead of the 32-byte hash
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Best must skip the corrupt deepest file and land on index 1.
	m, p, ok := s.Best(key, 0, 0)
	if !ok || m.Index != 1 || !bytes.Equal(p, good) {
		t.Fatalf("Best over corrupt store = %+v ok=%v", m, ok)
	}
	if s.Has(key, 2) {
		t.Fatal("corrupt file survived Best")
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestStoreDropsTruncatedFiles covers the wrapper's own validation: an
// intact frame whose payload is too short for the Meta header, or whose
// Meta names another boundary than the file name, is dropped as corrupt.
func TestStoreDropsTruncatedFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key := testKey(5)
	blobs, err := blobstore.Open(dir, format, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := blobs.Put(blobName(key, 1), []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := blobs.Put(blobName(key, 2), Meta{Index: 7}.encode()); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{1, 2} {
		if _, _, err := s.Load(key, idx); !errors.Is(err, blobstore.ErrCorrupt) {
			t.Fatalf("Load(%d) = %v, want ErrCorrupt", idx, err)
		}
		if s.Has(key, idx) {
			t.Fatalf("invalid checkpoint %d survived Load", idx)
		}
	}
	if _, _, ok := s.Best(key, 0, 0); ok {
		t.Fatal("Best returned an invalid checkpoint")
	}
	if st := s.Stats(); st.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", st.Dropped)
	}
}

// TestStoreDropsVersionMismatch checks that bumping Version retires every
// checkpoint written under the previous payload layout.
func TestStoreDropsVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	key := testKey(6)
	old := format
	old.Version = Version - 1
	blobs, err := blobstore.Open(dir, old, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := blobs.Put(blobName(key, 1), Meta{Index: 1, Cycle: 10}.encode(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s, _ := Open(dir, 0)
	if _, _, err := s.Load(key, 1); !errors.Is(err, blobstore.ErrVersion) {
		t.Fatalf("Load old-version = %v, want ErrVersion", err)
	}
	if s.Has(key, 1) {
		t.Fatal("version-mismatched file survived Load")
	}
}

func TestStoreEvictsLRUOverBudget(t *testing.T) {
	payload := make([]byte, 1024)
	// Budget fits roughly two files (payload + ~90 bytes of framing each).
	s, err := Open(t.TempDir(), 2400)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(7)
	for i := 1; i <= 3; i++ {
		if err := s.Save(key, Meta{Index: i, Cycle: int64(i)}, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes > 2400 {
		t.Fatalf("budget not enforced: %+v", st)
	}
	if !s.Has(key, 3) {
		t.Fatal("the checkpoint just saved was evicted")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, _ := Open(t.TempDir(), 64*1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := testKey(byte(g % 3))
			for i := 1; i <= 20; i++ {
				m := Meta{Index: i, Cycle: int64(100 * i), WarpInsts: uint64(10 * i)}
				if err := s.Save(key, m, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				if got, p, ok := s.Best(key, 0, 0); ok && string(p) != fmt.Sprintf("payload-%d", got.Index) {
					t.Errorf("Best returned index %d with payload %q", got.Index, p)
					return
				}
				s.NoteWarmStart(1)
				_ = s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.CyclesSkipped != 8*20 || st.Hits+st.Misses != 8*20 {
		t.Fatalf("stats = %+v", st)
	}
}
