package experiments

import (
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/gpu"
)

// TestPrefixKeyInvariants pins the prefix-key contract: engine selection and
// run-length budgets must not split the keyspace (all engines are
// byte-identical and budget validity is checked at load time), while anything
// architectural must.
func TestPrefixKeyInvariants(t *testing.T) {
	base := gpu.DefaultConfig()
	ref := prefixKey("2mm", 32, 7, base)

	neutral := map[string]func(*gpu.Config){
		"fastforward": func(c *gpu.Config) { c.FastForward = !c.FastForward },
		"parallel":    func(c *gpu.Config) { c.Parallel = true; c.Workers = 8 },
		"adaptive":    func(c *gpu.Config) { c.Parallel = true; c.Adaptive = true; c.AdaptiveThreshold = 2 },
		"max-cycles":  func(c *gpu.Config) { c.MaxCycles = 123 },
		"max-insts":   func(c *gpu.Config) { c.MaxWarpInsts = 456 },
	}
	for name, mutate := range neutral {
		cfg := base
		mutate(&cfg)
		if prefixKey("2mm", 32, 7, cfg) != ref {
			t.Errorf("%s changed the prefix key; sweeps over it cannot share checkpoints", name)
		}
	}

	distinct := map[string]checkpoint.Key{
		"workload": prefixKey("lu", 32, 7, base),
		"size":     prefixKey("2mm", 64, 7, base),
		"seed":     prefixKey("2mm", 32, 8, base),
	}
	archCfg := base
	archCfg.NumSMs++
	distinct["arch"] = prefixKey("2mm", 32, 7, archCfg)
	for name, k := range distinct {
		if k == ref {
			t.Errorf("%s did not change the prefix key; foreign state could be restored", name)
		}
	}
}

// TestWarmStartFallsBackOnCorruptPayload proves the never-poison contract: a
// structurally intact store entry whose payload is not a device snapshot must
// degrade the run to a cold start that still produces correct results.
func TestWarmStartFallsBackOnCorruptPayload(t *testing.T) {
	ref, err := RunTiming("gaus", Options{Size: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	store, err := checkpoint.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Size: 24, Seed: 7, Checkpoints: store}
	key := prefixKey("gaus", 24, 7, opts.gpuConfig())
	if err := store.Save(key, checkpoint.Meta{Index: 1, Cycle: 10, WarpInsts: 10},
		[]byte("not a device snapshot")); err != nil {
		t.Fatal(err)
	}

	got, err := RunTiming("gaus", opts)
	if err != nil {
		t.Fatalf("run with poisoned store: %v", err)
	}
	if got.WarmStartIndex != 0 {
		t.Fatalf("run warm-started from a corrupt payload (index %d)", got.WarmStartIndex)
	}
	if diffs := DiffRuns(ref, got); len(diffs) > 0 {
		t.Fatalf("cold fallback diverges from reference:\n%s", diffs[0])
	}
	if err := got.Instance.Verify(); err != nil {
		t.Fatalf("cold fallback failed verification: %v", err)
	}
}

// TestWarmStartRespectsBudgets proves load-time validity: a checkpoint deeper
// than the run's instruction budget must not be restored, and a tighter
// budget reproduces the cold run of that budget exactly.
func TestWarmStartRespectsBudgets(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Populate from a complete run.
	full, err := RunTiming("srad", Options{Size: 32, Seed: 7, Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Saves == 0 {
		t.Fatalf("complete run saved nothing: %+v", st)
	}

	// A budget below the first boundary: nothing to resume from.
	budget := uint64(100)
	ref, err := RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget, Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmStartIndex != 0 {
		t.Fatalf("tiny budget warm-started at %d; checkpoint deeper than the window", got.WarmStartIndex)
	}
	if diffs := DiffRuns(ref, got); len(diffs) > 0 {
		t.Fatalf("budgeted run with store diverges:\n%s", diffs[0])
	}

	// A mid-run budget: resume is allowed but only from a boundary strictly
	// inside the window, and the result still matches the budgeted cold run.
	budget = full.Col.WarpInsts / 2
	ref, err = RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget})
	if err != nil {
		t.Fatal(err)
	}
	got, err = RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget, Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmStartIndex > 0 && got.WarmStartCycles >= ref.Cycles {
		t.Fatalf("resumed past the measurement window: inherited %d of %d cycles",
			got.WarmStartCycles, ref.Cycles)
	}
	if diffs := DiffRuns(ref, got); len(diffs) > 0 {
		t.Fatalf("mid-budget run with store diverges:\n%s", diffs[0])
	}
}
