package jobs_test

import (
	"testing"

	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/jobs"
)

// TestSpecKeySpellingsShareOneKey pins the canonical run identity: every
// spelling of one bfs/256 timing spec that resolves to the same machine and
// budgets — whatever engine it names — has one Spec.Key, so a re-spelled
// request is a cache hit instead of a re-simulation.
func TestSpecKeySpellingsShareOneKey(t *testing.T) {
	base := jobs.Spec{Workload: "bfs", Mode: jobs.ModeTiming, Size: 256, Seed: 1}
	def := gpu.DefaultConfig()
	parallel := gpu.DefaultConfig()
	parallel.Parallel, parallel.Workers, parallel.Adaptive = true, 4, true
	serial := gpu.DefaultConfig()
	serial.FastForward = false

	spellings := map[string]jobs.Spec{"nil GPU": base}
	for name, cfg := range map[string]gpu.Config{
		"DefaultConfig()": def, "parallel 4 workers adaptive": parallel, "FastForward=false": serial,
	} {
		s := base
		s.GPU = &cfg
		spellings[name] = s
	}
	explicit := base
	explicit.MaxCycles = experiments.DefaultMaxCycles
	spellings["MaxCycles = experiments.DefaultMaxCycles"] = explicit

	want := base.Key()
	for name, s := range spellings {
		if got := s.Key(); got != want {
			t.Errorf("%s: key %s, want %s (nil GPU, MaxCycles 0)", name, got, want)
		}
	}

	tighter := base
	tighter.MaxCycles = experiments.DefaultMaxCycles - 1
	if tighter.Key() == want {
		t.Error("a different cycle budget shares the default's key")
	}
}
