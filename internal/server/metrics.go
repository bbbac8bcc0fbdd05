package server

import (
	"strconv"
	"sync"
	"time"

	"critload/internal/blobstore"
	"critload/internal/checkpoint"
	"critload/internal/jobs"
	"critload/internal/journal"
	"critload/internal/obsv"
)

// jobWallBuckets covers simulation wall times, which run far longer than
// HTTP requests: from sub-10ms cache-adjacent runs to multi-minute sweeps.
var jobWallBuckets = []float64{.01, .05, .1, .5, 1, 5, 10, 30, 60, 120, 300}

// batchSizeBuckets covers batch classify request sizes, from singletons up
// to the jobs.MaxBatchItems ceiling.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// metricsSet owns the server's registry: the job manager's counters exported
// as scrape-time functions, HTTP request instrumentation (in-flight gauge,
// per-endpoint latency histograms, per-endpoint/status counters) and
// per-mode job wall-time histograms.
type metricsSet struct {
	reg *obsv.Registry

	httpInFlight *obsv.Gauge
	httpPanics   *obsv.Counter
	latency      map[string]*obsv.Histogram // per endpoint
	jobWall      map[jobs.Mode]*obsv.Histogram

	batchItems      *obsv.Counter
	batchItemErrors *obsv.Counter
	batchSize       *obsv.Histogram

	ptxAccepted *obsv.Counter
	ptxRejected *obsv.Counter

	mu       sync.Mutex
	requests map[string]*obsv.Counter // endpoint + status → counter
}

// newMetricsSet builds the registry. endpoints is the bounded route-label
// set, derived from the mux registrations (routeTable.labels); raw request
// paths never become label values, so cardinality stays fixed.
func newMetricsSet(mgr *jobs.Manager, ckpts *checkpoint.Store, start time.Time, endpoints []string) *metricsSet {
	reg := obsv.NewRegistry()
	m := &metricsSet{
		reg:      reg,
		latency:  map[string]*obsv.Histogram{},
		jobWall:  map[jobs.Mode]*obsv.Histogram{},
		requests: map[string]*obsv.Counter{},
	}

	// Job-manager counters, read from the atomic stats block at scrape time.
	stat := func(read func(jobs.Stats) float64) func() float64 {
		return func() float64 { return read(mgr.Stats()) }
	}
	reg.CounterFunc("critloadd_jobs_submitted_total",
		"Jobs accepted by the manager.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Submitted) }))
	reg.CounterFunc("critloadd_jobs_completed_total",
		"Jobs finished successfully.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Completed) }))
	reg.CounterFunc("critloadd_jobs_failed_total",
		"Jobs finished with an error.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Failed) }))
	reg.CounterFunc("critloadd_jobs_cancelled_total",
		"Jobs cancelled before completing.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Cancelled) }))
	reg.CounterFunc("critloadd_cache_hits_total",
		"Submissions answered from the result cache.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.CacheHits) }))
	reg.CounterFunc("critloadd_cache_misses_total",
		"Submissions that scheduled or joined an execution.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.CacheMisses) }))
	reg.CounterFunc("critloadd_jobs_deduped_total",
		"Submissions that joined an in-flight execution (singleflight).", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Deduped) }))
	reg.CounterFunc("critloadd_executions_total",
		"Actual simulation runner invocations.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Executions) }))
	reg.CounterFunc("critloadd_job_panics_total",
		"Runner panics recovered into failed jobs.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Panics) }))
	reg.CounterFunc("critloadd_job_wall_seconds_total",
		"Total runner wall-clock time.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.WallNanos) / 1e9 }))
	reg.GaugeFunc("critloadd_queue_depth",
		"Jobs waiting for a worker.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Queued) }))
	reg.GaugeFunc("critloadd_jobs_running",
		"Jobs currently executing.", nil,
		stat(func(s jobs.Stats) float64 { return float64(s.Running) }))
	reg.GaugeFunc("critloadd_uptime_seconds",
		"Seconds since the server started.", nil,
		func() float64 { return time.Since(start).Seconds() })

	// Content-addressed stores, read at scrape time (Stats includes a
	// directory scan over a budget-bounded directory). One family per
	// counter, labelled by store, present only for configured stores.
	if ckpts != nil {
		registerStore(reg, "checkpoints", ckpts.BlobStats)
		reg.CounterFunc("critloadd_checkpoint_cycles_skipped_total",
			"Simulated cycles inherited from checkpoints instead of re-simulated.", nil,
			func() float64 { return float64(ckpts.Stats().CyclesSkipped) })
	}
	if results := mgr.Results(); results != nil {
		registerStore(reg, "results", results.Stats)
		reg.CounterFunc("critloadd_resultstore_disk_hits_total",
			"Submissions answered from the on-disk result store.", nil,
			stat(func(s jobs.Stats) float64 { return float64(s.DiskHits) }))
	}

	// Write-ahead journal families, present only when the daemon runs with
	// -data-dir; read at scrape time like the store families.
	if jnl := mgr.Journal(); jnl != nil {
		reg.CounterFunc("critloadd_jobs_recovered_total",
			"Jobs rebuilt from the journal at startup.", nil,
			stat(func(s jobs.Stats) float64 { return float64(s.Recovered) }))
		reg.CounterFunc("critloadd_journal_errors_total",
			"Durability failures: journal appends or result writes that did not reach disk.", nil,
			stat(func(s jobs.Stats) float64 { return float64(s.JournalErrors) }))
		jsnap := func(read func(journal.Stats) float64) func() float64 {
			return func() float64 { return read(jnl.Stats()) }
		}
		reg.CounterFunc("critloadd_journal_appends_total",
			"Records appended to the write-ahead journal.", nil,
			jsnap(func(s journal.Stats) float64 { return float64(s.Appends) }))
		reg.CounterFunc("critloadd_journal_syncs_total",
			"fsyncs issued by synced journal appends.", nil,
			jsnap(func(s journal.Stats) float64 { return float64(s.Syncs) }))
		reg.CounterFunc("critloadd_journal_rotations_total",
			"Journal segment rotations.", nil,
			jsnap(func(s journal.Stats) float64 { return float64(s.Rotations) }))
		reg.CounterFunc("critloadd_journal_compactions_total",
			"Journal compactions (startup recovery and clean shutdown).", nil,
			jsnap(func(s journal.Stats) float64 { return float64(s.Compactions) }))
		reg.CounterFunc("critloadd_journal_replay_truncated_bytes_total",
			"Bytes abandoned past the last replay's corruption boundary.", nil,
			jsnap(func(s journal.Stats) float64 { return float64(s.Replay.TruncatedBytes) }))
		reg.GaugeFunc("critloadd_journal_segments",
			"Journal segment files currently on disk.", nil,
			jsnap(func(s journal.Stats) float64 { return float64(s.Segments) }))
		reg.GaugeFunc("critloadd_journal_disk_bytes",
			"Bytes of journal data currently on disk.", nil,
			jsnap(func(s journal.Stats) float64 { return float64(s.DiskBytes) }))
	}

	// HTTP instrumentation.
	m.httpInFlight = reg.Gauge("critloadd_http_in_flight",
		"HTTP requests currently being served.", nil)
	m.httpPanics = reg.Counter("critloadd_http_panics_total",
		"Handler panics recovered into 500 responses.", nil)
	for _, ep := range endpoints {
		m.latency[ep] = reg.Histogram("critloadd_http_request_seconds",
			"HTTP request latency by endpoint.",
			map[string]string{"endpoint": ep}, nil)
	}
	m.batchItems = reg.Counter("critloadd_http_batch_items_total",
		"Kernel sources received across batch classify requests.", nil)
	m.batchItemErrors = reg.Counter("critloadd_http_batch_item_errors_total",
		"Batch classify items that failed (per-item 4xx).", nil)
	m.batchSize = reg.Histogram("critloadd_http_batch_size",
		"Items per batch classify request.", nil, batchSizeBuckets)
	m.ptxAccepted = reg.Counter("critloadd_ptx_submissions_total",
		"Raw PTX submissions by outcome.",
		map[string]string{"outcome": "accepted"})
	m.ptxRejected = reg.Counter("critloadd_ptx_submissions_total",
		"Raw PTX submissions by outcome.",
		map[string]string{"outcome": "rejected"})

	// Per-mode job wall-time histograms, fed by the manager's execution
	// observer.
	for _, mode := range []jobs.Mode{jobs.ModeFunctional, jobs.ModeTiming} {
		m.jobWall[mode] = reg.Histogram("critloadd_job_wall_seconds",
			"Runner wall-clock time per execution by mode.",
			map[string]string{"mode": string(mode)}, jobWallBuckets)
	}
	mgr.SetExecutionObserver(m.observeExecution)
	return m
}

// registerStore exports one blob store's generic counters and gauges as
// critloadd_store_*{store=name}.
func registerStore(reg *obsv.Registry, name string, read func() blobstore.Stats) {
	label := map[string]string{"store": name}
	snap := func(field func(blobstore.Stats) float64) func() float64 {
		return func() float64 { return field(read()) }
	}
	reg.CounterFunc("critloadd_store_hits_total",
		"Store lookups that found a usable entry (checkpoints: warm starts).", label,
		snap(func(s blobstore.Stats) float64 { return float64(s.Hits) }))
	reg.CounterFunc("critloadd_store_misses_total",
		"Store lookups that found nothing usable.", label,
		snap(func(s blobstore.Stats) float64 { return float64(s.Misses) }))
	reg.CounterFunc("critloadd_store_puts_total",
		"Entries written to the store.", label,
		snap(func(s blobstore.Stats) float64 { return float64(s.Puts) }))
	reg.CounterFunc("critloadd_store_evictions_total",
		"Store files evicted to stay under the disk budget.", label,
		snap(func(s blobstore.Stats) float64 { return float64(s.Evictions) }))
	reg.CounterFunc("critloadd_store_dropped_total",
		"Corrupt or version-mismatched store files deleted on read.", label,
		snap(func(s blobstore.Stats) float64 { return float64(s.Dropped) }))
	reg.GaugeFunc("critloadd_store_files",
		"Store files currently on disk.", label,
		snap(func(s blobstore.Stats) float64 { return float64(s.Files) }))
	reg.GaugeFunc("critloadd_store_disk_bytes",
		"Bytes of store data currently on disk.", label,
		snap(func(s blobstore.Stats) float64 { return float64(s.Bytes) }))
}

// observePTX records one /v1/ptx submission outcome.
func (m *metricsSet) observePTX(accepted bool) {
	if accepted {
		m.ptxAccepted.Inc()
	} else {
		m.ptxRejected.Inc()
	}
}

// observeBatch records one batch classify request's size and per-item
// failure count.
func (m *metricsSet) observeBatch(items, failed int) {
	m.batchItems.Add(uint64(items))
	m.batchItemErrors.Add(uint64(failed))
	m.batchSize.Observe(float64(items))
}

// observeRequest is the Instrument middleware's sink.
func (m *metricsSet) observeRequest(endpoint string, status int, d time.Duration) {
	if h, ok := m.latency[endpoint]; ok {
		h.Observe(d.Seconds())
	}
	m.requestCounter(endpoint, status).Inc()
}

// requestCounter returns (registering on first use) the per-endpoint,
// per-status request counter. Lazy registration keeps the family to the
// status codes actually seen.
func (m *metricsSet) requestCounter(endpoint string, status int) *obsv.Counter {
	code := strconv.Itoa(status)
	key := endpoint + " " + code
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.requests[key]
	if !ok {
		c = m.reg.Counter("critloadd_http_requests_total",
			"HTTP requests by endpoint and status code.",
			map[string]string{"endpoint": endpoint, "code": code})
		m.requests[key] = c
	}
	return c
}

// observeExecution is the manager's execution observer.
func (m *metricsSet) observeExecution(spec jobs.Spec, wall time.Duration, _ error) {
	if h, ok := m.jobWall[spec.Mode]; ok {
		h.Observe(wall.Seconds())
	}
}
