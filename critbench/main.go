// Command critbench is critload's benchmark. It runs one named workload
// against an in-process critloadd — assembled from the same public
// constructors internal/daemon.Run uses, serving HTTP on loopback — with
// load from pkg/client in the same process, and checks every answer.
//
//	critbench --workload cold-sim --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a traced run. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloadRunners = map[string]func(context.Context, *env) (*phase, error){
	"cold-sim": runColdSim,
	"classify": runClassify,
	"reuse":    runReuse,
}

// setupReps is how many times an untraced run repeats its set-up; setup_s
// is the median.
const setupReps = 7

type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for data dirs, traces and records
	plant    string
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a finished run.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`

	lines []string
}

func main() {
	var o runOpts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: cold-sim, classify or reuse")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "critbench"),
		"directory for data dirs, traces, determinism records and result files")
	flag.Parse()
	o.trace = trace == 1
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "critbench:", err)
		os.Exit(2)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "critbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, o runOpts) (*report, error) {
	fn, ok := workloadRunners[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have cold-sim, classify, reuse)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	base := filepath.Join(o.out, o.workload)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds * float64(time.Second))
	e := &env{seed: o.seed, window: window, dir: filepath.Join(base, "data"),
		setupReps: setupReps, plant: o.plant}
	if o.trace {
		// The traced run measures an untraced half and a traced half of
		// equal length; the gap between them is the tracing overhead.
		e.window /= 2
		e.setupReps = 1
	}
	defer os.RemoveAll(e.dir)
	a, err := fn(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	phases := []*phase{a}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		traced := *e
		traced.tr = tr
		b, err := fn(ctx, &traced)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", o.workload, err)
		}
		phases = append(phases, b)
	}

	rep := &report{Metrics: map[string]metricOut{}}
	var problems []string
	for _, p := range phases {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		problems = append(problems, p.problems...)
	}
	if o.trace && !reflect.DeepEqual(a.determinism, phases[1].determinism) {
		rep.Failed++
		problems = append(problems, "traced and untraced halves disagree on simulated statistics")
	}
	if err := checkDeterminism(filepath.Join(o.out, "determinism"), o.workload, o.seed, a.determinism); err != nil {
		rep.Failed++
		problems = append(problems, err.Error())
	}
	rep.Correct = rep.Failed == 0
	if rep.Attempted == 0 {
		return nil, errors.New("no operation completed in the window")
	}
	errorRate := float64(rep.Failed) / float64(rep.Attempted)

	rep.lines = append(rep.lines,
		fmt.Sprintf("critbench workload=%s seed=%d seconds=%g trace=%t", o.workload, o.seed, o.seconds, o.trace),
		"host "+kvLine(hostShape(base)),
		"traffic "+kvFloats(a.props),
	)
	if !o.trace {
		vals := map[string]float64{"ops_per_s": a.opsPerS, "latency_p50_ms": median(a.latency),
			"latency_p95_ms": quantile(a.latency, 0.95), "setup_s": median(a.setup)}
		counts := map[string]int{"ops_per_s": len(a.samples), "latency_p50_ms": len(a.latency),
			"latency_p95_ms": len(a.latency), "setup_s": len(a.setup)}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
			rep.lines = append(rep.lines, fmt.Sprintf("metric %-24s %12.4f %-6s n=%d",
				d.name, vals[d.name], d.unit, counts[d.name]))
		}
	} else {
		spans := tr.finish()
		if err := writeTrace(filepath.Join(base, fmt.Sprintf("trace-seed%d.json", o.seed)), spans); err != nil {
			return nil, err
		}
		layer := layerMetrics(a, phases[1], tr, spans)
		layer["error_rate"] = errorRate
		for _, d := range perLayer() {
			rep.Metrics[d.name] = metricOut{Value: layer[d.name], Unit: d.unit}
		}
		for _, d := range layers {
			rep.lines = append(rep.lines, fmt.Sprintf("layer  %-34s %14.4f %s", d.name, layer[d.name], d.unit))
		}
	}
	for _, d := range detail {
		if v, ok := a.detail[d.name]; ok {
			n := len(a.samples)
			if i := strings.Index(d.name, "_latency"); i >= 0 {
				n = a.counts[d.name[:i+len("_latency")]]
			}
			rep.lines = append(rep.lines, fmt.Sprintf("detail %-24s %12.4f %-6s n=%d", d.name, v, d.unit, n))
		}
	}
	rep.lines = append(rep.lines, fmt.Sprintf("detail %-24s %12.6f %-6s attempted=%d failed=%d",
		"error_rate", errorRate, "ratio", rep.Attempted, rep.Failed))
	for _, pr := range problems {
		rep.lines = append(rep.lines, "problem "+pr)
	}
	return rep, writeResult(base, o, rep, a)
}

// layerMetrics assembles every per-layer metric of a traced run: the
// traced phase's counters and spans, plus the untraced phase's detail.
func layerMetrics(a, b *phase, tr *tracer, spans []span) map[string]float64 {
	m := map[string]float64{}
	for k, v := range b.layer {
		if !strings.HasPrefix(k, "_") {
			m[k] = v
		}
	}
	for _, d := range detail {
		m[d.name] = a.detail[d.name]
	}
	m["trace.overhead"] = 1 - ratio(b.opsPerS, a.opsPerS)

	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	msOf := func(name string, withParent bool) []float64 {
		var out []float64
		for _, s := range byName[name] {
			if !withParent || s.Parent != 0 {
				out = append(out, float64(s.dur())/1e6)
			}
		}
		return out
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	for _, n := range []string{"classify", "batch", "ptx", "submit", "poll"} {
		m["server."+n+"_ms.p50"] = median(msOf("server."+n, true))
	}
	m["server.polls_per_job"] = ratio(float64(len(msOf("server.poll", true))), float64(len(byName["client.job"])))

	// Client time not spent inside the handler: transport, encoding and
	// connection handling on both sides.
	childServer := map[uint64]float64{}
	for _, s := range spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, "server.") {
			childServer[s.Parent] += float64(s.dur())
		}
	}
	var clientNS, serverNS float64
	for _, s := range spans {
		if v, ok := childServer[s.ID]; ok && strings.HasPrefix(s.Name, "client.") {
			clientNS += float64(s.dur())
			serverNS += v
		}
	}
	m["client.http_share"] = ratio(clientNS-serverNS, clientNS)

	execMS := sum(msOf("jobs.exec", false))
	m["workloads.setup_ms.p50"] = median(msOf("workloads.setup", false))
	m["workloads.setup_share"] = ratio(sum(msOf("workloads.setup", false)), execMS)
	m["gpu.new_ms.p50"] = median(msOf("gpu.new", false))

	sim := tr.sim
	var cycles, launch int64
	for c := simClass(0); c < numClasses; c++ {
		cycles += sim.cycles[c]
		launch += sim.launchNanos[c]
		m["gpu.host_ns_per_cycle."+classNames[c]] = ratio(float64(sim.launchNanos[c]), float64(sim.cycles[c]))
	}
	if cycles > 0 {
		m["gpu.launch_s.total"] = float64(launch) / 1e9
		m["gpu.cycles"] = float64(cycles)
		m["gpu.warp_insts"] = float64(sim.timingWarpInsts)
		m["gpu.skip_share"] = ratio(float64(sim.skipped), float64(cycles))
		m["gpu.host_ns_per_warp_inst"] = ratio(float64(launch), float64(sim.timingWarpInsts))
	} else if m["gpu.cycles"] > 0 {
		// Checkpointed runs go through the production runner and are
		// timed whole.
		m["gpu.launch_s.total"] = execMS / 1e3
	}
	m["gpu.host_ns_per_cycle"] = ratio(m["gpu.launch_s.total"]*1e9, m["gpu.cycles"])
	m["gpu.mallocs_per_kcycle"] = ratio(float64(b.hostEnd.allocObjects-b.hostBase.allocObjects), m["gpu.cycles"]/1e3)
	m["emu.host_ns_per_warp_inst"] = ratio(float64(sim.emuNanos), float64(sim.emuWarpInsts))

	m["host.peak_rss_mb"] = peakRSSMB()
	m["host.alloc_bytes_per_job"] = ratio(float64(a.hostEnd.allocBytes-a.hostBase.allocBytes),
		float64(unitsDone(a.samples, anyKind)))
	m["host.gc_cpu_share"] = ratio(a.hostEnd.gcCPU-a.hostBase.gcCPU, a.hostEnd.totalCPU-a.hostBase.totalCPU)
	return m
}

// checkDeterminism compares a run's simulated-statistic totals with the
// record an earlier run with the same workload and seed left, or leaves
// the first record.
func checkDeterminism(dir, workload string, seed int64, totals map[string]uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]uint64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
		if !reflect.DeepEqual(prev, totals) {
			return fmt.Errorf("simulated statistics differ from the earlier run with seed %d (%s)", seed, path)
		}
		return nil
	}
	b, err := json.MarshalIndent(totals, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeResult keeps the whole result — host shape, traffic properties,
// sample counts and problems next to the metrics — in the output dir.
func writeResult(base string, o runOpts, rep *report, a *phase) error {
	trace := 0
	if o.trace {
		trace = 1
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"host": hostShape(base), "traffic": a.props, "counts": a.counts,
		"setup_s": a.setup, "determinism": a.determinism, "result": rep, "lines": rep.lines,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(base, fmt.Sprintf("result-seed%d-trace%d.json", o.seed, trace)), b, 0o644)
}

func kvLine(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q ", k, m[k])
	}
	return strings.TrimSpace(b.String())
}

func kvFloats(m map[string]float64) string {
	s := map[string]string{}
	for k, v := range m {
		s[k] = fmt.Sprintf("%.4f", v)
	}
	return kvLine(s)
}

// repeatSetup performs the workload's set-up e.setupReps times from an
// empty data dir and keeps the last one. Each repetition returns the
// teardown of what it built.
func repeatSetup(p *phase, e *env, setup func(rep int) (func() error, error)) error {
	for rep := 0; rep < e.setupReps; rep++ {
		if err := freshDir(e.dir); err != nil {
			return err
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		teardown, err := setup(rep)
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if err != nil {
			if teardown != nil {
				teardown()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		if rep < e.setupReps-1 {
			if err := teardown(); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	return nil
}
