// Package blobstore is the one on-disk, content-addressed file store behind
// the checkpoint store and the durable result store. It owns the file
// framing, atomic writes, validate-on-read, byte-budget LRU eviction and the
// effectiveness counters; callers choose blob names (derived from SHA-256
// content addresses) and the meaning of the payload bytes.
//
// Every file is framed as
//
//	magic [8]byte | version uint32 | length uint64 | payload | SHA-256
//
// with little-endian integers and the SHA-256 covering everything before
// it. A read that finds a truncated, bit-flipped, foreign or other-version
// file deletes it, counts it as dropped and reports it as absent, so a
// crash mid-write or a format change can cost a recomputation but never
// poison a caller.
package blobstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Sentinel errors returned by Get; every one means "absent" to a caller.
var (
	// ErrNotFound marks a missing blob.
	ErrNotFound = errors.New("blobstore: not found")
	// ErrCorrupt marks a truncated, bit-flipped or foreign file.
	ErrCorrupt = errors.New("blobstore: corrupt file")
	// ErrVersion marks an intact file written under a different version.
	ErrVersion = errors.New("blobstore: version mismatch")
)

// Format fixes what one store's files look like and how they are written.
// Each wrapper package fixes its store's Format; it is never a user
// setting.
type Format struct {
	// Magic opens every file; exactly 8 bytes.
	Magic string
	// Version is the payload layout version. Files of any other version are
	// dropped on read.
	Version uint32
	// Ext is the file-name suffix; only files carrying it are counted,
	// scanned and evicted, so a store may share a directory.
	Ext string
	// Sync fsyncs each file before its rename, for stores whose callers
	// record elsewhere that a blob exists.
	Sync bool
}

// headerLen is the framed size of magic, version and length.
const headerLen = 8 + 4 + 8

// Stats is a point-in-time snapshot of a store's counters plus an on-disk
// scan.
type Stats struct {
	Hits      uint64 `json:"hits"`      // lookups that found a usable blob
	Misses    uint64 `json:"misses"`    // lookups that found nothing usable
	Puts      uint64 `json:"puts"`      // blobs written
	Evictions uint64 `json:"evictions"` // files removed by the byte budget
	Dropped   uint64 `json:"dropped"`   // invalid files deleted on read
	Files     int    `json:"files"`     // files currently on disk
	Bytes     int64  `json:"bytes"`     // bytes currently on disk
}

// Store is a flat directory of framed blob files named <name><Ext>,
// written atomically (temp file + rename) and evicted least-recently-used
// against a byte budget (reads refresh mtime). It is safe for concurrent
// use, and concurrent processes sharing a directory are safe too, because
// every write is an atomic rename and every read validates the file.
type Store struct {
	dir    string
	format Format
	budget int64 // bytes; <= 0 disables eviction

	hits, misses, puts, evictions, dropped atomic.Uint64
}

// Open creates (if needed) and opens a store directory. budgetBytes bounds
// the on-disk footprint; <= 0 means unlimited.
func Open(dir string, f Format, budgetBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("blobstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: open: %w", err)
	}
	return &Store{dir: dir, format: f, budget: budgetBytes}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+s.format.Ext)
}

// Put writes the concatenation of parts as blob name, atomically. Blobs are
// content-addressed, so when name already exists Put does nothing: the
// existing file necessarily holds the same bytes.
func (s *Store) Put(name string, parts ...[]byte) error {
	path := s.path(name)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := s.write(path, parts); err != nil {
		return fmt.Errorf("blobstore: put %s: %w", name, err)
	}
	s.puts.Add(1)
	s.evict(path)
	return nil
}

// write frames parts into a temp file and renames it into place.
func (s *Store) write(path string, parts [][]byte) error {
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+s.format.Ext+".partial")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.frame(tmp, parts); err != nil {
		tmp.Close()
		return err
	}
	if s.format.Sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// frame streams header, payload parts and trailer to w, hashing as it goes
// so a large payload is never copied.
func (s *Store) frame(w io.Writer, parts [][]byte) error {
	var n uint64
	for _, p := range parts {
		n += uint64(len(p))
	}
	h := sha256.New()
	out := io.MultiWriter(w, h)
	header := make([]byte, 0, headerLen)
	header = append(header, s.format.Magic...)
	header = binary.LittleEndian.AppendUint32(header, s.format.Version)
	header = binary.LittleEndian.AppendUint64(header, n)
	if _, err := out.Write(header); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := out.Write(p); err != nil {
			return err
		}
	}
	_, err := w.Write(h.Sum(nil))
	return err
}

// decode validates a framed file and returns its payload. The integrity
// hash is checked before anything else is trusted, so ErrVersion is only
// reported for intact files.
func (s *Store) decode(b []byte) ([]byte, error) {
	if len(b) < headerLen+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any valid file", ErrCorrupt, len(b))
	}
	if string(b[:8]) != s.format.Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if got := sha256.Sum256(body); string(got[:]) != string(sum) {
		return nil, fmt.Errorf("%w: integrity hash mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != s.format.Version {
		return nil, fmt.Errorf("%w: file version %d, store version %d", ErrVersion, v, s.format.Version)
	}
	if n := binary.LittleEndian.Uint64(b[12:]); n != uint64(len(body)-headerLen) {
		return nil, fmt.Errorf("%w: payload length %d does not match file size", ErrCorrupt, n)
	}
	return body[headerLen:], nil
}

// Get reads and validates blob name. A missing blob returns ErrNotFound; an
// invalid file is dropped (deleted and counted) and returns ErrCorrupt or
// ErrVersion. Get does not count hits or misses: a lookup is whatever the
// caller's typed API calls one, and it reports the outcome via NoteLookup.
func (s *Store) Get(name string) ([]byte, error) {
	path := s.path(name)
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("blobstore: get %s: %w", name, err)
	}
	payload, err := s.decode(b)
	if err != nil {
		s.Drop(name)
		return nil, err
	}
	// Refresh mtime so LRU eviction tracks use, not just creation.
	now := time.Now()
	os.Chtimes(path, now, now)
	return payload, nil
}

// Drop deletes blob name and counts it as dropped. Callers use it for a
// file whose frame is intact but whose typed content fails validation.
func (s *Store) Drop(name string) {
	os.Remove(s.path(name))
	s.dropped.Add(1)
}

// NoteLookup counts one typed lookup as a hit or a miss.
func (s *Store) NoteLookup(hit bool) {
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

// Has reports whether blob name exists, without validating it.
func (s *Store) Has(name string) bool {
	_, err := os.Stat(s.path(name))
	return err == nil
}

// List returns the names of the blobs whose name starts with prefix, in
// directory order.
func (s *Store) List(prefix string) []string {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, s.format.Ext) {
			names = append(names, strings.TrimSuffix(n, s.format.Ext))
		}
	}
	return names
}

// file is one scanned blob file.
type file struct {
	path  string
	size  int64
	mtime time.Time
}

// scan lists the store's own files; foreign files and temp files are
// skipped.
func (s *Store) scan() []file {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var files []file
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), s.format.Ext) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{
			path: filepath.Join(s.dir, e.Name()), size: info.Size(), mtime: info.ModTime(),
		})
	}
	return files
}

// Stats returns current counters plus an on-disk scan.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(),
		Evictions: s.evictions.Load(), Dropped: s.dropped.Load(),
	}
	for _, f := range s.scan() {
		st.Files++
		st.Bytes += f.size
	}
	return st
}

// evict removes least-recently-used files until the store fits its byte
// budget, never removing keep (the file just written).
func (s *Store) evict(keep string) {
	if s.budget <= 0 {
		return
	}
	files := s.scan()
	var total int64
	for _, f := range files {
		total += f.size
	}
	if total <= s.budget {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= s.budget {
			return
		}
		if f.path == keep {
			continue
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			s.evictions.Add(1)
		}
	}
}
