package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the catalogue must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloadRunners {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(got), len(want))
		}
		units := unitOf(want)
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], benchmark emits unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
}

// testSeconds keeps test runs short. reuse needs long enough that each
// client gets past its first sweep to the repeats, even under -race.
var testSeconds = map[string]float64{"cold-sim": 1, "classify": 1, "reuse": 6}

func unitOf(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func runShort(t *testing.T, workload string, trace bool, out, plant string) *report {
	t.Helper()
	rep, err := run(context.Background(), runOpts{workload: workload, seed: 1,
		seconds: testSeconds[workload], trace: trace, out: out, plant: plant})
	if err != nil {
		t.Fatalf("%s trace=%t: %v", workload, trace, err)
	}
	return rep
}

// mustMove lists, per workload, layer metrics its traffic must drive away
// from zero.
var mustMove = map[string][]string{
	"cold-sim": {"gpu.cycles", "gpu.host_ns_per_cycle", "workloads.setup_ms.p50",
		"emu.host_ns_per_warp_inst", "jobs.executions", "resultstore.puts",
		"coalesce.requests_per_load.N", "sim_jobs_per_s", "server.submit_ms.p50"},
	"classify": {"server.classify_ms.p50", "server.batch_ms.p50", "server.ptx_ms.p50",
		"ptx.parse_us.p50", "dataflow.loads_per_s", "families.build_ms.p50",
		"client.http_share", "classify_kernels_per_s"},
	"reuse": {"checkpoint.saves", "checkpoint.hits", "jobs.recovery_ms", "jobs.cache_hit_ratio",
		"resultstore.hits", "repeat_latency_p50_ms", "gpu.cycles"},
}

// mustStayZero lists layers a workload bypasses.
var mustStayZero = map[string][]string{
	"cold-sim": {"checkpoint.hits", "checkpoint.misses", "checkpoint.saves",
		"checkpoint.bytes_written", "checkpoint.skipped_cycle_share"},
	"classify": {"gpu.cycles", "gpu.warp_insts", "gpu.launch_s.total", "gpu.host_ns_per_cycle",
		"jobs.executions", "resultstore.puts"},
}

func TestEveryMetricEmitted(t *testing.T) {
	for name := range workloadRunners {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			rep := runShort(t, name, false, out, "")
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("untraced run: correct=%t attempted=%d failed=%d\n%s",
					rep.Correct, rep.Attempted, rep.Failed, strings.Join(rep.lines, "\n"))
			}
			expectMetrics(t, rep, endToEnd)
			for _, m := range endToEnd {
				if rep.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, rep.Metrics[m.name].Value)
				}
			}
			rep = runShort(t, name, true, out, "")
			if !rep.Correct {
				t.Fatalf("traced run failed:\n%s", strings.Join(rep.lines, "\n"))
			}
			expectMetrics(t, rep, perLayer())
			for _, m := range mustMove[name] {
				if rep.Metrics[m].Value == 0 {
					t.Errorf("%s reads 0", m)
				}
			}
			for _, m := range mustStayZero[name] {
				if v := rep.Metrics[m].Value; v != 0 {
					t.Errorf("%s = %v, want 0", m, v)
				}
			}
		})
	}
}

func expectMetrics(t *testing.T, rep *report, want []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
		} else if got.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
}

func TestPlantedWrongResultFailsVerification(t *testing.T) {
	for _, c := range []struct{ workload, plant string }{
		{"cold-sim", "counter"}, {"reuse", "counter"}, {"classify", "label"},
	} {
		rep := runShort(t, c.workload, false, t.TempDir(), c.plant)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s with a planted %s passed verification", c.workload, c.plant)
		}
	}
}

func TestDeterminismRecordCatchesDisagreement(t *testing.T) {
	out := t.TempDir()
	if rep := runShort(t, "cold-sim", false, out, ""); !rep.Correct {
		t.Fatalf("first run failed:\n%s", strings.Join(rep.lines, "\n"))
	}
	if rep := runShort(t, "cold-sim", false, out, ""); !rep.Correct {
		t.Fatalf("a second run with the same seed disagreed:\n%s", strings.Join(rep.lines, "\n"))
	}
	path := filepath.Join(out, "determinism", "cold-sim-seed1.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]uint64
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	rec["cycles"]++
	b, _ = json.Marshal(rec)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := runShort(t, "cold-sim", false, out, ""); rep.Correct {
		t.Error("a run disagreeing with the recorded simulated statistics passed")
	}
}
