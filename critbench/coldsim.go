package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"critload/internal/cache"
	"critload/internal/jobs"
	"critload/pkg/client"
)

// simClass is the paper's grouping of applications by what bounds them.
type simClass int

const (
	memBound simClass = iota
	graphClass
	denseClass
	numClasses
)

var classNames = [numClasses]string{"mem_bound", "graph", "dense"}

// app is one Table I application at a reduced size: every job costs
// milliseconds on one core, so a run holds hundreds of cold simulations.
type app struct {
	name  string
	size  int
	class simClass
}

// coldApps is one block of the cold-sim job list: the memory-latency-bound
// apps (fast-forward skips most of their cycles), the irregular graph apps
// and the dense/image apps (fast-forward is nearly bypassed). spmv runs at
// 256 rows: below 96 rows its input generator wraps column indices out of
// range.
var coldApps = []app{
	{"grm", 16, memBound}, {"spmv", 256, memBound},
	{"bfs", 256, graphClass}, {"sssp", 256, graphClass}, {"mis", 256, graphClass},
	{"mst", 256, graphClass}, {"ccl", 256, graphClass},
	{"2mm", 32, denseClass}, {"srad", 32, denseClass}, {"lu", 32, denseClass},
	{"gaus", 32, denseClass}, {"htw", 8, denseClass},
}

// functionalPerBlock of the len(coldApps) jobs in a block run in
// functional mode: about one job in six.
const functionalPerBlock = 2

// coldJob is one generated cold-sim submission.
type coldJob struct {
	spec  client.JobSpec
	class simClass
}

// coldJobs generates n jobs from the seed. Each block holds every app once
// in a seeded order, so the class mix is the same in every window and the
// latency median stays inside one cluster of job costs. Every job has its
// own input seed, so every submission misses every cache.
func coldJobs(seed int64, n int) []coldJob {
	rng := rand.New(rand.NewSource(seed))
	out := make([]coldJob, 0, n)
	for len(out) < n {
		order := rng.Perm(len(coldApps))
		functional := map[int]bool{}
		for _, i := range rng.Perm(len(coldApps))[:functionalPerBlock] {
			functional[i] = true
		}
		for _, i := range order {
			a := coldApps[i]
			mode := jobs.ModeTiming
			if functional[i] {
				mode = jobs.ModeFunctional
			}
			out = append(out, coldJob{
				spec: client.JobSpec{Workload: a.name, Mode: string(mode), Size: a.size,
					Seed: seed*1_000_000 + int64(len(out)) + 1},
				class: a.class,
			})
		}
	}
	return out[:n]
}

// coldSample is how many leading jobs of the list are re-run directly and
// checked after the window: one full block, so every app in both modes'
// positions is covered.
var coldSample = len(coldApps)

func classOf(name string) simClass {
	for _, a := range coldApps {
		if a.name == name {
			return a.class
		}
	}
	return graphClass
}

func isResFail(o int) bool { return cache.Outcome(o).IsReservationFail() }

func runColdSim(ctx context.Context, e *env) (*phase, error) {
	p := newPhase()
	// Sized for 400 jobs/s, about six times today's rate on two cores; a
	// faster daemon needs a longer list or the window stops with an error.
	listLen := int(e.window.Seconds()*400) + 2*coldSample
	var list []coldJob
	var d *benchDaemon
	var runner jobs.Runner
	if e.tr != nil {
		runner = tracedSimRunner(e.tr)
		if err := checkTracedRunner(ctx, coldJobs(e.seed, coldSample)); err != nil {
			p.fail("traced runner: %v", err)
			runner = nil
		}
	}
	err := repeatSetup(p, e, func(rep int) (func() error, error) {
		list = coldJobs(e.seed, listLen)
		var err error
		d, err = startDaemon(daemonOpts{dataDir: e.dir, tracer: e.tr, runner: runner})
		if err != nil {
			return nil, err
		}
		cl, err := client.New(client.Config{BaseURL: d.url})
		if err != nil {
			return d.close, err
		}
		defer cl.Close()
		_, err = runJob(ctx, cl, nil, client.JobSpec{Workload: "spmv", Mode: "timing",
			Size: 256, Seed: -int64(rep) - 1})
		return d.close, err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	cl, err := newClient(d, e.tr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	outcomes := make([]*jobOutcome, listLen)
	counters := storeCounters(d)
	p.hostBase = readHost()
	p.samples, p.elapsed, err = closedLoop(ctx, []int{0}, listLen, time.Now().Add(e.window),
		func(ctx context.Context, i int) sample {
			t0 := time.Now()
			o, err := runJob(ctx, cl, e.tr, list[i].spec)
			s := sample{kind: "sim", lat: time.Since(t0), units: 1, err: err}
			if err == nil {
				if e.plant == "counter" && i == 0 {
					plantCounter(o)
				}
				outcomes[i] = o
			}
			return s
		})
	p.hostEnd = readHost()
	if err != nil {
		return nil, err
	}

	// Traffic and end-to-end numbers.
	var warpInsts uint64
	var classJobs [numClasses]int
	functional := 0
	for _, s := range p.samples {
		p.attempted++
		if s.err != nil {
			p.fail("job %d: %v", s.index, s.err)
			continue
		}
		o := outcomes[s.index]
		warpInsts += o.result.Summary.WarpInsts
		classJobs[list[s.index].class]++
		if list[s.index].spec.Mode == string(jobs.ModeFunctional) {
			functional++
		}
		if o.job.CacheHit {
			p.fail("job %d: cold submission answered from cache", s.index)
		}
	}
	done := float64(unitsDone(p.samples, anyKind))
	for c := simClass(0); c < numClasses; c++ {
		p.props["share."+classNames[c]] = ratio(float64(classJobs[c]), done)
	}
	p.props["share.functional"] = ratio(float64(functional), done)
	p.latency = latencies(p.samples, anyKind)
	p.opsPerS = done / p.elapsed.Seconds()
	p.detail["sim_jobs_per_s"] = p.opsPerS
	p.detail["sim_latency_p50_ms"] = median(p.latency)
	p.detail["sim_latency_p95_ms"] = quantile(p.latency, 0.95)
	p.counts["sim_latency"] = len(p.latency)
	p.detail["sim_warp_insts_per_s"] = float64(warpInsts) / p.elapsed.Seconds()
	jobLayers(p, outcomes)
	addCounters(p, counters, storeCounters(d))
	finishStoreLayers(p, d)

	// Untimed verification: re-run the leading block directly.
	timingTotals := map[string]uint64{}
	for i := 0; i < coldSample; i++ {
		spec := list[i].spec
		r, err := runDirect(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("direct run of %s/%d: %w", spec.Workload, spec.Size, err)
		}
		addSimTotals(p.determinism, r)
		if spec.Mode == string(jobs.ModeTiming) {
			addSimTotals(timingTotals, r)
		}
		if outcomes[i] == nil {
			// A window too short to reach it: ask the daemon now, untimed.
			if outcomes[i], err = runJob(ctx, cl, nil, spec); err != nil {
				p.fail("sample job %d (%s): %v", i, spec.Workload, err)
				continue
			}
		}
		if err := checkAgainstDirect(outcomes[i].result, spec, r); err != nil {
			p.fail("job %d %s/%d %s: %v", i, spec.Workload, spec.Size, spec.Mode, err)
		}
	}
	memoryLayers(p, timingTotals)
	return p, nil
}

// memoryLayers derives the simulated memory system's D/N statistics from
// the verification sample's timing runs, so they repeat exactly per seed.
func memoryLayers(p *phase, t map[string]uint64) {
	for _, c := range []string{"D", "N"} {
		p.layer["coalesce.requests_per_load."+c] = ratio(float64(t["requests."+c]), float64(t["gld_warps."+c]))
		p.layer["cache.l1_miss_share."+c] = ratio(float64(t["l1_miss."+c]), float64(t["l1_acc."+c]))
		p.layer["cache.l2_miss_share."+c] = ratio(float64(t["l2_miss."+c]), float64(t["l2_acc."+c]))
	}
	p.layer["cache.l1_resfail_share.N"] = ratio(float64(t["l1_resfail.N"]), float64(t["l1_attempts.N"]))
}

// jobLayers derives the jobs layer's queue and execution times from the
// jobs' own timestamps.
func jobLayers(p *phase, outcomes []*jobOutcome) {
	var queue, exec []float64
	for _, s := range p.samples {
		if s.err != nil || outcomes[s.index] == nil {
			continue
		}
		j := outcomes[s.index].job
		if j.CacheHit || j.Started.IsZero() {
			continue
		}
		queue = append(queue, float64(j.Started.Sub(j.Created))/float64(time.Millisecond))
		exec = append(exec, float64(j.Finished.Sub(j.Started))/float64(time.Millisecond))
	}
	p.layer["jobs.queue_ms.p50"] = median(queue)
	p.layer["jobs.exec_ms.p50"] = median(exec)
}

// storeCounters snapshots the jobs manager, journal, result store and
// checkpoint counters of a daemon. Names starting with "_" are inputs to
// derived per-layer ratios.
func storeCounters(d *benchDaemon) map[string]float64 {
	st := d.mgr.Stats()
	c := map[string]float64{
		"jobs.deduped":    float64(st.Deduped),
		"jobs.executions": float64(st.Executions),
		"_jobs.submitted": float64(st.Submitted),
		"_jobs.hits":      float64(st.CacheHits + st.DiskHits),
	}
	if j := d.mgr.Journal(); j != nil {
		js := j.Stats()
		c["_journal.syncs"] = float64(js.Syncs)
		c["_journal.bytes"] = float64(js.AppendedBytes)
	}
	if r := d.mgr.Results(); r != nil {
		rs := r.Stats()
		c["resultstore.puts"] = float64(rs.Puts)
		c["resultstore.hits"] = float64(rs.Hits)
	}
	if d.ckpts != nil {
		cs := d.ckpts.Stats()
		c["checkpoint.hits"] = float64(cs.Hits)
		c["checkpoint.misses"] = float64(cs.Misses)
		c["checkpoint.saves"] = float64(cs.Saves)
		c["_checkpoint.skipped"] = float64(cs.CyclesSkipped)
	}
	return c
}

// addCounters adds the counter growth between two snapshots of one daemon
// to the phase, so set-up traffic is left out and a restart's two daemons
// add up.
func addCounters(p *phase, before, after map[string]float64) {
	for k, v := range after {
		p.layer[k] += v - before[k]
	}
}

// finishStoreLayers derives the store ratios once every counter is in.
// On-disk sizes are read at the end: bytes per stored result, and the
// checkpoint bytes written estimated as saves times the mean file size.
func finishStoreLayers(p *phase, d *benchDaemon) {
	l := p.layer
	l["jobs.cache_hit_ratio"] = ratio(l["_jobs.hits"], l["_jobs.submitted"])
	l["journal.syncs_per_submit"] = ratio(l["_journal.syncs"], l["_jobs.submitted"])
	l["journal.bytes_per_job"] = ratio(l["_journal.bytes"], l["_jobs.submitted"])
	if r := d.mgr.Results(); r != nil {
		rs := r.Stats()
		l["resultstore.bytes_per_result"] = ratio(float64(rs.Bytes), float64(rs.Files))
	}
	if d.ckpts != nil {
		cs := d.ckpts.Stats()
		l["checkpoint.bytes_written"] = l["checkpoint.saves"] * ratio(float64(cs.Bytes), float64(cs.Files))
	}
}
