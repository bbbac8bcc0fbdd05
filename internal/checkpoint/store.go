package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"critload/internal/blobstore"
)

// Version identifies the checkpoint payload layout: the Meta header and
// every component Snapshot encoding. Bump it whenever any of them changes;
// files written under a different version are dropped on read (cold start),
// never decoded.
const Version = 2

// format is the checkpoint store's file framing. Saves are not fsync'd: a
// checkpoint lost to a crash costs a re-simulation, never a wrong result,
// and sweeps write hundreds of megabytes of them.
var format = blobstore.Format{Magic: "CRITCKPT", Version: Version, Ext: ".ckpt"}

// metaLen is the encoded size of Meta at the head of each payload.
const metaLen = 4 * 8

// Key identifies a run prefix: a SHA-256 over the canonical description of
// everything that determines simulated state at a boundary (workload, size,
// seed, architectural configuration) — and nothing that provably cannot
// (engine selection, run-length budgets).
type Key [sha256.Size]byte

// KeyOf hashes canonical key material.
func KeyOf(material []byte) Key { return sha256.Sum256(material) }

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Meta describes one stored snapshot.
type Meta struct {
	// Index is the kernel-launch boundary: the number of launches completed
	// before the snapshot was taken (always ≥ 1; the boundary before the
	// first launch is the initial state and never stored).
	Index int
	// Cycle is the simulated cycle count at the boundary.
	Cycle int64
	// SkippedCycles is the portion of Cycle the fast-forward engine skipped.
	SkippedCycles int64
	// WarpInsts is the warp-instruction count at the boundary; checkpoint
	// validity against a MaxWarpInsts budget is checked at load time.
	WarpInsts uint64
}

func (m Meta) encode() []byte {
	b := make([]byte, 0, metaLen)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Index))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Cycle))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.SkippedCycles))
	return binary.LittleEndian.AppendUint64(b, m.WarpInsts)
}

func decodeMeta(b []byte) Meta {
	return Meta{
		Index:         int(binary.LittleEndian.Uint64(b)),
		Cycle:         int64(binary.LittleEndian.Uint64(b[8:])),
		SkippedCycles: int64(binary.LittleEndian.Uint64(b[16:])),
		WarpInsts:     binary.LittleEndian.Uint64(b[24:]),
	}
}

// Stats is a point-in-time snapshot of store effectiveness counters. A
// lookup is one Best call: a hit is a warm start.
type Stats struct {
	Hits          uint64 // Best calls that returned a usable checkpoint
	Misses        uint64 // Best calls that found nothing usable
	Saves         uint64 // snapshots written
	Evictions     uint64 // files removed by the byte budget
	Dropped       uint64 // corrupt/mismatched files deleted on read
	CyclesSkipped int64  // simulated cycles inherited via warm starts
	Files         int    // checkpoint files currently on disk
	Bytes         int64  // bytes currently on disk
}

// Store is the on-disk checkpoint store: a blobstore of files named
// <key-hex>.k<index>.ckpt whose payload is the encoded Meta followed by the
// device snapshot. It is safe for concurrent use by multiple goroutines and
// by concurrent processes sharing a directory.
type Store struct {
	blobs         *blobstore.Store
	cyclesSkipped atomic.Int64
}

// Open creates (if needed) and opens a store directory. budgetBytes bounds
// the on-disk footprint; <= 0 means unlimited.
func Open(dir string, budgetBytes int64) (*Store, error) {
	blobs, err := blobstore.Open(dir, format, budgetBytes)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{blobs: blobs}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.blobs.Dir() }

func blobName(key Key, index int) string {
	return fmt.Sprintf("%s.k%06d", key, index)
}

// Save writes one snapshot. Saving an index that already exists is a no-op:
// checkpoints are content-addressed, so an existing file for the same
// (key, index) necessarily holds identical state.
func (s *Store) Save(key Key, m Meta, payload []byte) error {
	if m.Index < 1 {
		return fmt.Errorf("checkpoint: refusing to save boundary index %d (initial state is never stored)", m.Index)
	}
	return s.blobs.Put(blobName(key, m.Index), m.encode(), payload)
}

// Has reports whether a checkpoint exists for (key, index); it does not
// validate the file (Load and Best do).
func (s *Store) Has(key Key, index int) bool {
	return s.blobs.Has(blobName(key, index))
}

// Load reads and validates one checkpoint. A missing checkpoint returns
// blobstore.ErrNotFound; an invalid one is deleted so it is never retried,
// and the matching blobstore sentinel error is returned.
func (s *Store) Load(key Key, index int) (Meta, []byte, error) {
	name := blobName(key, index)
	b, err := s.blobs.Get(name)
	if err != nil {
		return Meta{}, nil, err
	}
	if len(b) < metaLen {
		s.blobs.Drop(name)
		return Meta{}, nil, fmt.Errorf("%w: %d-byte payload has no meta", blobstore.ErrCorrupt, len(b))
	}
	m := decodeMeta(b)
	if m.Index != index {
		s.blobs.Drop(name)
		return Meta{}, nil, fmt.Errorf("%w: file named k%06d holds index %d", blobstore.ErrCorrupt, index, m.Index)
	}
	return m, b[metaLen:], nil
}

// Best returns the deepest valid checkpoint for the key that a run with the
// given budgets can resume from: the snapshot's prefix must not have tripped
// either limit, i.e. WarpInsts strictly below maxWarpInsts (when set) and
// Cycle strictly below maxCycles (when set). Invalid files encountered on the
// way down are dropped; deeper checkpoints that merely exceed the budgets are
// left in place for future, larger-budget runs.
func (s *Store) Best(key Key, maxWarpInsts uint64, maxCycles int64) (Meta, []byte, bool) {
	prefix := key.String() + ".k"
	var indices []int
	for _, name := range s.blobs.List(prefix) {
		if idx, err := strconv.Atoi(strings.TrimPrefix(name, prefix)); err == nil && idx >= 0 {
			indices = append(indices, idx)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(indices)))
	for _, idx := range indices {
		m, payload, err := s.Load(key, idx)
		if err != nil {
			continue // dropped if invalid; just missing if raced
		}
		if maxWarpInsts > 0 && m.WarpInsts >= maxWarpInsts {
			continue
		}
		if maxCycles > 0 && m.Cycle >= maxCycles {
			continue
		}
		s.blobs.NoteLookup(true)
		return m, payload, true
	}
	s.blobs.NoteLookup(false)
	return Meta{}, nil, false
}

// NoteWarmStart records that a run resumed from a checkpoint, inheriting the
// given number of simulated cycles instead of re-simulating them.
func (s *Store) NoteWarmStart(cycles int64) {
	s.cyclesSkipped.Add(cycles)
}

// Stats returns current counters plus an on-disk scan.
func (s *Store) Stats() Stats {
	b := s.blobs.Stats()
	return Stats{
		Hits: b.Hits, Misses: b.Misses, Saves: b.Puts,
		Evictions: b.Evictions, Dropped: b.Dropped,
		CyclesSkipped: s.cyclesSkipped.Load(),
		Files:         b.Files, Bytes: b.Bytes,
	}
}

// BlobStats returns the store's generic blobstore counters, the view the
// service exports under critloadd_store_*{store="checkpoints"}.
func (s *Store) BlobStats() blobstore.Stats { return s.blobs.Stats() }
