package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var testFormat = Format{Magic: "TESTBLOB", Version: 3, Ext: ".blob"}

func open(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, testFormat, budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.Put("a", []byte("head-"), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("head-payload"); !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q (parts concatenated)", got, want)
	}
	if _, err := s.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if !s.Has("a") || s.Has("b") {
		t.Fatal("Has disagrees with the stored set")
	}
	if st := s.Stats(); st.Puts != 1 || st.Files != 1 || st.Bytes != int64(headerLen+len("head-payload")+32) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutIsIdempotent(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for i := 0; i < 3; i++ {
		if err := s.Put("a", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Puts != 1 || st.Files != 1 {
		t.Fatalf("repeated Put not a no-op: %+v", st)
	}
}

func TestNoteLookupCounts(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	s.NoteLookup(true)
	s.NoteLookup(false)
	s.NoteLookup(false)
	if st := s.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestInvalidFilesDropped is the robustness suite: a truncated, bit-flipped,
// foreign or other-version file is deleted on read, counted, and reported
// as absent with the matching sentinel — never returned as data.
func TestInvalidFilesDropped(t *testing.T) {
	other := testFormat
	other.Version++
	foreign := testFormat
	foreign.Magic = "OTHERFMT"
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string, b []byte) []byte
		want    error
	}{
		{"truncated", func(_ *testing.T, _ string, b []byte) []byte { return b[:len(b)/2] }, ErrCorrupt},
		{"truncated trailer", func(_ *testing.T, _ string, b []byte) []byte { return b[:len(b)-1] }, ErrCorrupt},
		{"empty file", func(*testing.T, string, []byte) []byte { return nil }, ErrCorrupt},
		{"payload bit flip", func(_ *testing.T, _ string, b []byte) []byte { b[headerLen+2] ^= 1; return b }, ErrCorrupt},
		{"length bit flip", func(_ *testing.T, _ string, b []byte) []byte { b[12] ^= 1; return b }, ErrCorrupt},
		{"trailer bit flip", func(_ *testing.T, _ string, b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrCorrupt},
		{"other version", func(t *testing.T, dir string, _ []byte) []byte {
			return reframe(t, dir, other)
		}, ErrVersion},
		{"foreign magic", func(t *testing.T, dir string, _ []byte) []byte {
			return reframe(t, dir, foreign)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 0)
			if err := s.Put("k", []byte("payload-bytes")); err != nil {
				t.Fatal(err)
			}
			path := s.path("k")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(t, t.TempDir(), b), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("k"); !errors.Is(err, tc.want) {
				t.Fatalf("Get = %v, want %v", err, tc.want)
			}
			if s.Has("k") {
				t.Fatal("invalid file not deleted")
			}
			if st := s.Stats(); st.Dropped != 1 {
				t.Fatalf("stats = %+v, want 1 dropped", st)
			}
			if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("second Get = %v, want ErrNotFound", err)
			}
		})
	}
}

// reframe writes the same payload under format f in scratch and returns the
// intact file bytes.
func reframe(t *testing.T, scratch string, f Format) []byte {
	t.Helper()
	s, err := Open(scratch, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDropCountsAndDeletes(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Drop("k")
	if s.Has("k") || s.Stats().Dropped != 1 {
		t.Fatalf("Drop left %v / %+v", s.Has("k"), s.Stats())
	}
}

// TestForeignFilesIgnored keeps the scan, List and eviction away from files
// the store does not own (a journal living next door, temp files).
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"foreign.dat", "k1.blob.partial"} {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, 1<<12), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, 1)
	if err := s.Put("k1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Files != 1 || st.Evictions != 0 {
		t.Fatalf("foreign file counted or evicted: %+v", st)
	}
	if got := s.List("k"); len(got) != 1 || got[0] != "k1" {
		t.Fatalf("List = %v, want [k1]", got)
	}
	for _, name := range []string{"foreign.dat", "k1.blob.partial"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("eviction removed foreign file %s", name)
		}
	}
}

func TestListFiltersByPrefix(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, name := range []string{"aa.1", "aa.2", "ab.1"} {
		if err := s.Put(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.List("aa."); len(got) != 2 {
		t.Fatalf("List(aa.) = %v, want 2 names", got)
	}
}

// TestEvictionOrder fills the store past its budget and checks that the
// least-recently-used files go first, that a read refreshes recency, and
// that the just-written file survives.
func TestEvictionOrder(t *testing.T) {
	payload := make([]byte, 1000)
	fileSize := int64(headerLen + len(payload) + 32)
	s := open(t, t.TempDir(), 3*fileSize)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		name := fmt.Sprint("f", i)
		if err := s.Put(name, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is unambiguous on coarse clocks.
		at := base.Add(time.Duration(i) * time.Minute)
		os.Chtimes(s.path(name), at, at)
	}
	// Reading f0 makes it the most recently used.
	if _, err := s.Get("f0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("f3", payload); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes > 3*fileSize {
		t.Fatalf("stats after overflow = %+v", st)
	}
	for name, want := range map[string]bool{"f0": true, "f1": false, "f2": true, "f3": true} {
		if s.Has(name) != want {
			t.Errorf("Has(%s) = %v, want %v", name, !want, want)
		}
	}
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprint(i), make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Files != 5 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentAccess hammers Put/Get/Has/Stats and eviction from many
// goroutines under -race: no data race, no error, and every Get returns
// either an absence sentinel or the exact payload.
func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				name := fmt.Sprint("k", i%10)
				want := bytes.Repeat([]byte(name), 20)
				if err := s.Put(name, want); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, err := s.Get(name)
				s.NoteLookup(err == nil)
				if err == nil && !bytes.Equal(got, want) {
					t.Errorf("Get(%s) returned %q", name, got)
					return
				}
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get(%s): %v", name, err)
					return
				}
				_ = s.Has(name)
				_ = s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Hits+st.Misses != 8*40 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
