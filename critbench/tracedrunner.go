package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"critload/internal/dataflow"
	"critload/internal/emu"
	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/jobs"
	"critload/internal/profiler"
	"critload/internal/server"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// tracedSimRunner is the cold-sim runner of traced runs. It makes the same
// public calls experiments.RunTimingCtx and RunFunctionalCtx make —
// workload Setup, gpu.New, Instance.Run with an executor per launch, and
// profiler.Read — with a span around each, so a job's time splits into
// input setup, device build, simulation and encoding. checkTracedRunner
// proves it returns the production runner's results before it is used.
func tracedSimRunner(tr *tracer) jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec) (any, error) {
		parent, _ := spanFrom(ctx)
		w, ok := workloads.Get(spec.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", spec.Workload)
		}
		sp := tr.begin("workloads.setup", parent)
		inst, err := w.Setup(workloads.Params{Size: spec.Size, Seed: spec.Seed})
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", spec.Workload, err)
		}
		col := stats.New()
		var cycles int64
		switch spec.Mode {
		case jobs.ModeTiming:
			cycles, err = tracedTiming(ctx, tr, parent, spec, inst, col)
		case jobs.ModeFunctional:
			err = tracedFunctional(ctx, tr, parent, inst, col)
		default:
			err = fmt.Errorf("unknown mode %q", spec.Mode)
		}
		if err != nil {
			return nil, err
		}
		sp = tr.begin("server.encode", parent)
		defer sp.end()
		return &server.RunResult{Workload: spec.Workload, Mode: spec.Mode, Cycles: cycles,
			Counters: profiler.Read(col), Summary: summaryOf(col)}, nil
	}
}

func tracedTiming(ctx context.Context, tr *tracer, parent spanRef, spec jobs.Spec,
	inst *workloads.Instance, col *stats.Collector) (int64, error) {
	cfg := gpu.DefaultConfig()
	if spec.GPU != nil {
		cfg = *spec.GPU
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = experiments.DefaultMaxCycles
	}
	if spec.MaxCycles > 0 {
		cfg.MaxCycles = spec.MaxCycles
	}
	cfg.MaxWarpInsts = spec.MaxWarpInsts
	sp := tr.begin("gpu.new", parent)
	g, err := gpu.New(cfg, inst.Mem, col)
	sp.end()
	if err != nil {
		return 0, err
	}
	var launchNanos int64
	exec := func(l *emu.Launch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		jobs.ReportProgress(ctx, g.Cycle(), col.WarpInsts)
		if spec.MaxWarpInsts > 0 && col.WarpInsts >= spec.MaxWarpInsts {
			return nil
		}
		sp := tr.begin("gpu.launch", parent)
		err := g.LaunchKernel(l)
		sp.end()
		launchNanos += time.Since(sp.start).Nanoseconds()
		return err
	}
	if err := inst.Run(exec); err != nil {
		return 0, fmt.Errorf("%s timing run: %w", spec.Workload, err)
	}
	jobs.ReportProgress(ctx, g.Cycle(), col.WarpInsts)
	c := classOf(spec.Workload)
	tr.mu.Lock()
	tr.sim.launchNanos[c] += launchNanos
	tr.sim.cycles[c] += g.Cycle()
	tr.sim.skipped += g.SkippedCycles
	tr.sim.timingWarpInsts += col.WarpInsts
	tr.mu.Unlock()
	return g.Cycle(), nil
}

func tracedFunctional(ctx context.Context, tr *tracer, parent spanRef,
	inst *workloads.Instance, col *stats.Collector) error {
	class := map[string]stats.Classifier{}
	for _, k := range inst.Prog.Kernels {
		res := dataflow.Classify(k)
		class[k.Name] = func(pc uint32) bool {
			li, ok := res.Load(int(pc) / 8)
			return ok && li.Class == dataflow.NonDeterministic
		}
	}
	var current stats.Classifier
	inner := workloads.FunctionalExecutor(inst.Mem, func(ctaID int, _ *emu.Warp, s *emu.Step) {
		col.ObserveStep(ctaID, s, current)
	}, 0)
	var emuNanos int64
	exec := func(l *emu.Launch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		jobs.ReportProgress(ctx, 0, col.WarpInsts)
		current = class[l.Kernel.Name]
		sp := tr.begin("emu.launch", parent)
		err := inner(l)
		sp.end()
		emuNanos += time.Since(sp.start).Nanoseconds()
		return err
	}
	if err := inst.Run(exec); err != nil {
		return fmt.Errorf("functional run: %w", err)
	}
	jobs.ReportProgress(ctx, 0, col.WarpInsts)
	tr.mu.Lock()
	tr.sim.emuNanos += emuNanos
	tr.sim.emuWarpInsts += col.WarpInsts
	tr.mu.Unlock()
	return nil
}

// checkTracedRunner requires the traced runner's results to equal the
// production runner's byte for byte on the given jobs.
func checkTracedRunner(ctx context.Context, list []coldJob) error {
	traced := tracedSimRunner(newTracer())
	prod := server.SimRunner()
	for _, j := range list {
		spec := serverSpec(j.spec)
		a, err := traced(ctx, spec)
		if err != nil {
			return err
		}
		b, err := prod(ctx, spec)
		if err != nil {
			return err
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			return fmt.Errorf("%s/%d %s: traced runner result differs from the production runner",
				spec.Workload, spec.Size, spec.Mode)
		}
	}
	return nil
}
