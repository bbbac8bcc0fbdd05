package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"critload/internal/experiments"
	"critload/internal/jobs"
	"critload/internal/profiler"
	"critload/internal/server"
	"critload/internal/stats"
	"critload/pkg/client"
)

// env is what one phase of a workload runs with.
type env struct {
	seed   int64
	window time.Duration
	dir    string  // the phase's own data directory, created empty
	tr     *tracer // nil: tracing off
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps int
	// plant corrupts one received result ("counter") or classify label
	// ("label") before it is checked. Tests use it to prove that the
	// verification catches a wrong answer; runs leave it empty.
	plant string
}

// phase is everything one workload phase measured.
type phase struct {
	setup     []float64 // seconds per set-up repetition
	samples   []sample
	elapsed   time.Duration
	attempted int
	failed    int
	problems  []string

	detail map[string]float64 // detail metric → value
	counts map[string]int     // percentile metric → samples behind it
	props  map[string]float64 // traffic properties
	layer  map[string]float64 // per-layer metric → value
	// determinism holds totals of simulated statistics over the workload's
	// fixed verification sample; they must repeat exactly for a seed.
	determinism map[string]uint64
	// opsPerS and latency are the gated primary-operation numbers.
	opsPerS  float64
	latency  []float64 // ms, primary operations only
	hostBase hostCounters
	hostEnd  hostCounters
}

func newPhase() *phase {
	return &phase{
		detail: map[string]float64{}, counts: map[string]int{},
		props: map[string]float64{}, layer: map[string]float64{},
		determinism: map[string]uint64{},
	}
}

// fail counts one failed, refused or wrong operation.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// freshDir empties and recreates a data directory.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// newClient builds the pkg/client used for load; traced runs route it
// through the span-stamping transport.
func newClient(d *benchDaemon, tr *tracer) (*client.Client, error) {
	cfg := client.Config{BaseURL: d.url}
	if tr != nil {
		cfg.HTTPClient = tracedHTTPClient()
	}
	return client.New(cfg)
}

// jobOutcome is one job's terminal snapshot as the client saw it.
type jobOutcome struct {
	job    *client.Job
	result server.RunResult
	raw    []byte // compacted result JSON
}

// serverSpec is the jobs.Spec the daemon derives from a client JobSpec; the
// tracer keys runner spans by its cache key.
func serverSpec(s client.JobSpec) jobs.Spec {
	return jobs.Spec{Workload: s.Workload, Mode: jobs.Mode(s.Mode), Size: s.Size,
		Seed: s.Seed, MaxWarpInsts: s.MaxWarpInsts, MaxCycles: s.MaxCycles}
}

// runJob submits one job and long-polls it to a terminal state, recording
// client.job / client.submit / client.wait spans when traced.
func runJob(ctx context.Context, cl *client.Client, tr *tracer, spec client.JobSpec) (*jobOutcome, error) {
	var root *openSpan
	if tr != nil {
		root = tr.begin("client.job", spanRef{})
		defer root.end()
		tr.expectJob(serverSpec(spec).Key(), root.ref)
	}
	call := func(name string, fn func(ctx context.Context) (*client.Job, error)) (*client.Job, error) {
		if tr == nil {
			return fn(ctx)
		}
		sp := tr.begin(name, root.ref)
		defer sp.end()
		return fn(withSpan(ctx, sp.ref))
	}
	job, err := call("client.submit", func(ctx context.Context) (*client.Job, error) {
		return cl.SubmitJob(ctx, spec)
	})
	if err != nil {
		return nil, err
	}
	if !job.Terminal() {
		id := job.ID
		if job, err = call("client.wait", func(ctx context.Context) (*client.Job, error) {
			return cl.WaitJob(ctx, id, 0)
		}); err != nil {
			return nil, err
		}
	}
	if err := job.Err(); err != nil {
		return nil, err
	}
	out := &jobOutcome{job: job}
	var buf bytes.Buffer
	if err := json.Compact(&buf, job.Result); err != nil {
		return nil, fmt.Errorf("job %s: result is not JSON: %w", job.ID, err)
	}
	out.raw = buf.Bytes()
	if err := json.Unmarshal(out.raw, &out.result); err != nil {
		return nil, fmt.Errorf("job %s: decoding result: %w", job.ID, err)
	}
	if out.result.Workload != spec.Workload || string(out.result.Mode) != spec.Mode {
		return nil, fmt.Errorf("job %s: result is for %s/%s, asked %s/%s", job.ID,
			out.result.Workload, out.result.Mode, spec.Workload, spec.Mode)
	}
	return out, nil
}

// plantCounter corrupts one Table III counter of a received result.
func plantCounter(o *jobOutcome) {
	o.result.Counters[profiler.GldRequest]++
	o.raw, _ = json.Marshal(o.result)
}

// summaryOf condenses a collector exactly as the service's result does.
func summaryOf(col *stats.Collector) server.Summary {
	split := func(v [stats.NumCats]uint64) server.CategoryCounts {
		return server.CategoryCounts{Deterministic: v[stats.Det], NonDeterministic: v[stats.NonDet]}
	}
	return server.Summary{
		WarpInsts:        col.WarpInsts,
		ThreadInsts:      col.ThreadInsts,
		GlobalLoadWarps:  split(col.GLoadWarps),
		GlobalStoreWarps: col.GStoreWarps,
		SharedLoadWarps:  col.SLoadWarps,
		Requests:         split(col.Requests),
		L1Accesses:       split(col.L1Acc),
		L1Misses:         split(col.L1Miss),
		L2Accesses:       split(col.L2Acc),
		L2Misses:         split(col.L2Miss),
	}
}

// runDirect re-runs a spec straight through experiments, bypassing the
// daemon, as the reference for the service's result.
func runDirect(ctx context.Context, spec client.JobSpec) (*experiments.Run, error) {
	opts := experiments.Options{Size: spec.Size, Seed: spec.Seed,
		MaxWarpInsts: spec.MaxWarpInsts, MaxCycles: spec.MaxCycles}
	if spec.Mode == string(jobs.ModeFunctional) {
		return experiments.RunFunctionalCtx(ctx, spec.Workload, opts)
	}
	return experiments.RunTimingCtx(ctx, spec.Workload, opts)
}

// checkAgainstDirect compares a service result with a direct run: cycles,
// every Table III counter and the summary must be identical. A complete
// run (no warp budget) must also pass the workload's CPU reference check.
func checkAgainstDirect(got server.RunResult, spec client.JobSpec, r *experiments.Run) error {
	if got.Cycles != r.Cycles {
		return fmt.Errorf("cycles %d, direct run %d", got.Cycles, r.Cycles)
	}
	want := profiler.Read(r.Col)
	if len(got.Counters) != len(want) {
		return fmt.Errorf("%d counters, direct run %d", len(got.Counters), len(want))
	}
	for name, v := range want {
		if got.Counters[name] != v {
			return fmt.Errorf("counter %s = %d, direct run %d", name, got.Counters[name], v)
		}
	}
	if s := summaryOf(r.Col); got.Summary != s {
		return fmt.Errorf("summary %+v, direct run %+v", got.Summary, s)
	}
	if spec.MaxWarpInsts == 0 {
		if err := r.Instance.Verify(); err != nil {
			return fmt.Errorf("reference check: %w", err)
		}
	}
	return nil
}

// addSimTotals accumulates the simulated statistics of one direct run into
// a determinism record.
func addSimTotals(t map[string]uint64, r *experiments.Run) {
	col := r.Col
	t["runs"]++
	t["cycles"] += uint64(r.Cycles)
	t["warp_insts"] += col.WarpInsts
	for c, cat := range []string{"D", "N"} {
		t["gld_warps."+cat] += col.GLoadWarps[c]
		t["requests."+cat] += col.Requests[c]
		t["l1_acc."+cat] += col.L1Acc[c]
		t["l1_miss."+cat] += col.L1Miss[c]
		t["l2_acc."+cat] += col.L2Acc[c]
		t["l2_miss."+cat] += col.L2Miss[c]
		var attempts, resfail uint64
		for o, n := range col.L1Outcomes[c] {
			attempts += n
			if isResFail(o) {
				resfail += n
			}
		}
		t["l1_attempts."+cat] += attempts
		t["l1_resfail."+cat] += resfail
	}
}
