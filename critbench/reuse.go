package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"critload/internal/experiments"
	"critload/internal/jobs"
	"critload/pkg/client"
)

// sweepApp is a multi-launch graph app swept over ascending warp-
// instruction budgets; the last point of every sweep runs to completion.
// mst is not swept: its checkpoint warm starts can diverge from its cold
// run (mst/256 seed 4 run to completion: 21670 cycles cold, 21982 warm), so
// every sweep of it would fail verification until that is fixed.
type sweepApp struct {
	app
	budgets [3]uint64
}

var sweepApps = []sweepApp{
	{app{"sssp", 512, graphClass}, [3]uint64{8_000, 16_000, 24_000}},
	{app{"bfs", 512, graphClass}, [3]uint64{4_000, 8_000, 12_000}},
}

// Every block of a client's reuse stream is one four-point sweep followed
// by repeatsPerBlock repeats of earlier sweep points, one sent exactly as
// before and one re-spelled.
const (
	sweepPoints     = 4
	repeatsPerBlock = 2
	// reuseSample sweeps of each client are re-run directly and checked.
	reuseSample = 1
)

type reuseOp struct {
	kind string // "sweep", "repeat" (sent as before) or "respelled"
	spec client.JobSpec
	of   int // list position of the original, for repeats
}

// reuseOps generates the interleaved per-client streams from the seed:
// position c + benchClients*k is client c's k-th op. Clients alternate the
// swept apps block by block, each sweep with a fresh input seed, so the mix
// is the same on every seed. A repeat names a sweep point of an earlier
// block of the same client. A re-spelled repeat asks for the same result in
// a form the API accepts but the cache does not recognise today (an
// explicit max_cycles equal to experiments.DefaultMaxCycles), or adds a
// result-neutral timeout; blocks alternate the two.
func reuseOps(seed int64, perClient int) []reuseOp {
	ops := make([]reuseOp, perClient*benchClients)
	for c := 0; c < benchClients; c++ {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		var points []int // list positions of this client's sweep points
		k := 0
		put := func(op reuseOp) {
			if k < perClient {
				ops[c+benchClients*k] = op
			}
			k++
		}
		for block := 0; k < perClient; block++ {
			a := sweepApps[(block+c)%len(sweepApps)]
			sweepSeed := seed*1_000_000 + int64(block*benchClients+c) + 1
			for pt := 0; pt < sweepPoints; pt++ {
				spec := client.JobSpec{Workload: a.name, Mode: string(jobs.ModeTiming),
					Size: a.size, Seed: sweepSeed, ReuseCheckpoints: true}
				if pt < len(a.budgets) {
					spec.MaxWarpInsts = a.budgets[pt]
				}
				points = append(points, c+benchClients*k)
				put(reuseOp{kind: "sweep", spec: spec})
			}
			if block == 0 {
				continue
			}
			earlier := points[:len(points)-sweepPoints]
			for _, respell := range rng.Perm(repeatsPerBlock) {
				of := earlier[rng.Intn(len(earlier))]
				op := reuseOp{kind: "repeat", spec: ops[of].spec, of: of}
				if respell == 1 {
					op.kind = "respelled"
					if block%2 == 0 {
						op.spec.MaxCycles = experiments.DefaultMaxCycles
					} else {
						op.spec.TimeoutMillis = 600_000
					}
				}
				put(op)
			}
		}
	}
	return ops
}

func runReuse(ctx context.Context, e *env) (*phase, error) {
	p := newPhase()
	// Sized for 100 ops/s per client, about four times today's rate on two
	// cores; a faster daemon needs longer streams.
	perClient := int(e.window.Seconds()*100) + 2*(sweepPoints+repeatsPerBlock)
	var ops []reuseOp
	var d *benchDaemon
	opts := daemonOpts{dataDir: e.dir, checkpoints: true, tracer: e.tr}
	err := repeatSetup(p, e, func(rep int) (func() error, error) {
		ops = reuseOps(e.seed, perClient)
		var err error
		if d, err = startDaemon(opts); err != nil {
			return nil, err
		}
		cl, err := client.New(client.Config{BaseURL: d.url})
		if err != nil {
			return d.close, err
		}
		defer cl.Close()
		_, err = runJob(ctx, cl, nil, client.JobSpec{Workload: "bfs", Mode: "timing",
			Size: 256, Seed: -int64(rep) - 1})
		return d.close, err
	})
	if err != nil {
		return nil, err
	}
	outcomes := make([]*jobOutcome, len(ops))
	do := func(cl *client.Client) func(context.Context, int) sample {
		return func(ctx context.Context, i int) sample {
			t0 := time.Now()
			o, err := runJob(ctx, cl, e.tr, ops[i].spec)
			s := sample{kind: ops[i].kind, lat: time.Since(t0), units: 1, err: err}
			if err == nil {
				if e.plant == "counter" && i == 0 {
					plantCounter(o)
				}
				outcomes[i] = o
			}
			return s
		}
	}

	// Two halves of the window with a restart on the same data dir between
	// them: the second half reads what the first one stored.
	next := make([]int, benchClients)
	p.hostBase = readHost()
	for half := 0; half < 2; half++ {
		if half == 1 {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("closing for restart: %w", err)
			}
			if d, err = startDaemon(opts); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			p.layer["jobs.recovery_ms"] = float64(d.recovery.Nanoseconds()) / 1e6
		}
		cl, err := newClient(d, e.tr)
		if err != nil {
			return nil, err
		}
		// After the restart, count from the daemon's birth: its recovery
		// reloads results from the store.
		before := map[string]float64{}
		if half == 0 {
			before = storeCounters(d)
		}
		ss, elapsed, err := closedLoop(ctx, next, len(ops), time.Now().Add(e.window/2), do(cl))
		cl.Close()
		if err != nil {
			d.close()
			return nil, err
		}
		addCounters(p, before, storeCounters(d))
		p.samples = append(p.samples, ss...)
		p.elapsed += elapsed
	}
	p.hostEnd = readHost()
	defer d.close()
	finishStoreLayers(p, d)

	// Every repeat must return the original's bytes.
	var respelled, respelledHits int
	var executedCycles float64
	for _, s := range p.samples {
		p.attempted++
		if s.err != nil {
			p.fail("%s op %d: %v", s.kind, s.index, s.err)
			continue
		}
		o := outcomes[s.index]
		if !o.job.CacheHit {
			executedCycles += float64(o.result.Cycles)
		}
		if s.kind == "sweep" {
			continue
		}
		if s.kind == "respelled" {
			respelled++
			if o.job.CacheHit {
				respelledHits++
			}
		}
		orig := outcomes[ops[s.index].of]
		if orig == nil {
			p.fail("%s op %d: original %d has no result", s.kind, s.index, ops[s.index].of)
		} else if !bytes.Equal(o.raw, orig.raw) {
			p.fail("%s op %d (%s/%d seed %d budget %d): %d cycles, original op %d %d cycles",
				s.kind, s.index, o.result.Workload, ops[s.index].spec.Size, ops[s.index].spec.Seed,
				ops[s.index].spec.MaxWarpInsts, o.result.Cycles, ops[s.index].of, orig.result.Cycles)
		}
	}
	repeats := kindIs("repeat", "respelled")
	sweeps := kindIs("sweep")
	p.latency = latencies(p.samples, sweeps)
	p.opsPerS = float64(unitsDone(p.samples, anyKind)) / p.elapsed.Seconds()
	rl := latencies(p.samples, repeats)
	p.detail["sim_jobs_per_s"] = p.opsPerS
	p.detail["sim_latency_p50_ms"] = median(p.latency)
	p.detail["sim_latency_p95_ms"] = quantile(p.latency, 0.95)
	p.counts["sim_latency"] = len(p.latency)
	p.detail["repeat_latency_p50_ms"] = median(rl)
	p.detail["repeat_latency_p95_ms"] = quantile(rl, 0.95)
	p.counts["repeat_latency"] = len(rl)
	p.layer["jobs.respelled_hit_ratio"] = ratio(float64(respelledHits), float64(respelled))
	p.layer["checkpoint.skipped_cycle_share"] = ratio(p.layer["_checkpoint.skipped"], executedCycles)
	p.layer["gpu.cycles"] = executedCycles - p.layer["_checkpoint.skipped"]
	p.props["share.respelled"] = ratio(float64(respelled), float64(len(rl)))
	p.props["share.repeats"] = ratio(float64(len(rl)), float64(len(p.samples)))
	p.props["share.checkpoint_cycles"] = p.layer["checkpoint.skipped_cycle_share"]
	jobLayers(p, outcomes)

	// Untimed verification: each client's first sweeps re-run cold, straight
	// through experiments.
	cl, err := client.New(client.Config{BaseURL: d.url})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	for c := 0; c < benchClients; c++ {
		for k := 0; k < reuseSample*sweepPoints; k++ {
			i := c + benchClients*k
			spec := ops[i].spec
			r, err := runDirect(ctx, spec)
			if err != nil {
				return nil, fmt.Errorf("direct run of %s/%d: %w", spec.Workload, spec.Size, err)
			}
			addSimTotals(p.determinism, r)
			if outcomes[i] == nil {
				// A window too short to reach it: ask the daemon now, untimed.
				if outcomes[i], err = runJob(ctx, cl, nil, spec); err != nil {
					p.fail("sample op %d: %v", i, err)
					continue
				}
			}
			if err := checkAgainstDirect(outcomes[i].result, spec, r); err != nil {
				p.fail("op %d %s/%d budget %d: %v", i, spec.Workload, spec.Size, spec.MaxWarpInsts, err)
			}
		}
	}
	return p, nil
}
