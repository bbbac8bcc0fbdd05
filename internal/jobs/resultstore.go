package jobs

import (
	"encoding/json"
	"fmt"

	"critload/internal/blobstore"
)

// resultFormat is the result store's file framing. Results are stored as
// the job result's canonical JSON, so the version only needs to move when
// that encoding changes. Puts are fsync'd before their rename: the
// completed journal record that follows a put must never refer to a result
// the filesystem could still lose.
var resultFormat = blobstore.Format{Magic: "CRITRES\x00", Version: 1, Ext: ".res", Sync: true}

// ResultStoreStats is a point-in-time snapshot of the result store's
// counters. A lookup is one Get call.
type ResultStoreStats = blobstore.Stats

// ResultStore is the on-disk, content-addressed half of the result cache:
// a blobstore holding one file per completed spec, named by the spec's
// Key. A crash mid-write can never poison a recovered daemon, because every
// read validates the file and an invalid one reads as absent.
type ResultStore struct {
	blobs *blobstore.Store
}

// OpenResultStore creates (if needed) and opens a result store directory.
// budgetBytes bounds the on-disk footprint; <= 0 means unlimited.
func OpenResultStore(dir string, budgetBytes int64) (*ResultStore, error) {
	blobs, err := blobstore.Open(dir, resultFormat, budgetBytes)
	if err != nil {
		return nil, fmt.Errorf("jobs: result store: %w", err)
	}
	return &ResultStore{blobs: blobs}, nil
}

// Dir returns the store directory.
func (s *ResultStore) Dir() string { return s.blobs.Dir() }

// Put serializes v to its canonical JSON and writes it durably under key.
// Results are content-addressed — an identical spec produces an identical
// result — so putting an existing key is a no-op.
func (s *ResultStore) Put(key Key, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jobs: result store put: %w", err)
	}
	return s.blobs.Put(key.String(), payload)
}

// Get returns the stored result's JSON for key, or ok == false when the
// store holds nothing usable. The raw JSON is returned (not a decoded
// value): it re-serializes byte-identically to the original result, which
// is what the crash-recovery harness asserts.
func (s *ResultStore) Get(key Key) (json.RawMessage, bool) {
	payload, err := s.blobs.Get(key.String())
	s.blobs.NoteLookup(err == nil)
	return json.RawMessage(payload), err == nil
}

// Has reports whether a result file exists for key without validating it.
func (s *ResultStore) Has(key Key) bool { return s.blobs.Has(key.String()) }

// Stats returns current counters plus an on-disk scan.
func (s *ResultStore) Stats() ResultStoreStats { return s.blobs.Stats() }
