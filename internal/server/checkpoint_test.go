package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"critload/internal/checkpoint"
	"critload/internal/jobs"
	"critload/internal/server"
)

// newCheckpointedService is newService with a checkpoint store behind the
// runner and on /metrics.
func newCheckpointedService(t *testing.T, workers int) (*httptest.Server, *checkpoint.Store) {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.NewManager(jobs.Config{Workers: workers, Runner: server.SimRunnerWith(store)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	ts := httptest.NewServer(server.New(mgr, server.WithCheckpoints(store)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})
	return ts, store
}

// runJob submits one job and polls it to a done state, returning the result.
func runJob(t *testing.T, ts *httptest.Server, body map[string]any) server.RunResult {
	t.Helper()
	var submitted jobs.JobInfo
	if code := postJSON(t, ts.URL+"/v1/jobs", body, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	var final struct {
		jobs.JobInfo
		Result server.RunResult `json:"result"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?wait_ms=2000", ts.URL, submitted.ID), &final)
		if code != http.StatusOK {
			t.Fatalf("poll = %d, want 200", code)
		}
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", final.State)
		}
	}
	if final.State != jobs.StateDone {
		t.Fatalf("final state = %q (error %q), want done", final.State, final.Error)
	}
	return final.Result
}

// TestJobsReuseCheckpoints drives the reuse_checkpoints path over HTTP: a
// first timing job populates the store, a second job with a different
// result-cache key (larger cycle limit) warm-starts from it and must report
// identical simulated work. The checkpoint counters then surface on /metrics.
func TestJobsReuseCheckpoints(t *testing.T) {
	ts, store := newCheckpointedService(t, 2)

	cold := runJob(t, ts, map[string]any{
		"workload": "srad", "mode": "timing", "size": 32, "seed": 3,
		"reuse_checkpoints": true,
	})
	if st := store.Stats(); st.Saves == 0 {
		t.Fatalf("no checkpoints saved by the first job: %+v", st)
	}

	warm := runJob(t, ts, map[string]any{
		"workload": "srad", "mode": "timing", "size": 32, "seed": 3,
		"max_cycles": 400_000_000, "reuse_checkpoints": true,
	})
	st := store.Stats()
	if st.Hits == 0 || st.CyclesSkipped == 0 {
		t.Fatalf("second job did not warm-start: %+v", st)
	}
	if cold.Cycles != warm.Cycles || cold.Summary.WarpInsts != warm.Summary.WarpInsts {
		t.Fatalf("warm result diverges: cold %d cycles / %d insts, warm %d / %d",
			cold.Cycles, cold.Summary.WarpInsts, warm.Cycles, warm.Summary.WarpInsts)
	}

	text := scrapeMetrics(t, ts.URL)
	for metric, wantPositive := range map[string]bool{
		`critloadd_store_hits_total{store="checkpoints"}`:      true,
		`critloadd_store_misses_total{store="checkpoints"}`:    false,
		`critloadd_store_puts_total{store="checkpoints"}`:      true,
		`critloadd_store_evictions_total{store="checkpoints"}`: false,
		`critloadd_store_dropped_total{store="checkpoints"}`:   false,
		"critloadd_checkpoint_cycles_skipped_total":            true,
		`critloadd_store_files{store="checkpoints"}`:           true,
		`critloadd_store_disk_bytes{store="checkpoints"}`:      true,
	} {
		v, ok := metricValue(text, metric)
		if !ok {
			t.Errorf("metrics output missing %s:\n%s", metric, text)
			continue
		}
		if wantPositive && v <= 0 {
			t.Errorf("%s = %v, want > 0", metric, v)
		}
	}
}

// TestJobsWithoutStoreIgnoreReuseFlag proves reuse_checkpoints is harmless on
// a daemon running without a store (the default deployment).
func TestJobsWithoutStoreIgnoreReuseFlag(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	r := runJob(t, ts, map[string]any{
		"workload": "dwt", "mode": "timing", "size": 64, "seed": 2,
		"reuse_checkpoints": true,
	})
	if r.Cycles <= 0 {
		t.Fatalf("cycles = %d, want > 0", r.Cycles)
	}
}
