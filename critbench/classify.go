package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"critload/internal/dataflow"
	"critload/internal/families"
	"critload/internal/kgen"
	"critload/internal/ptx"
	"critload/pkg/client"
)

// Classify traffic: a pool of seeded kgen kernels and family instances,
// each labelled D/N by construction, and a seeded op list drawing on it.
const (
	classifyKernels  = 192
	classifyFamilies = 48
	batchItems       = 16
	// classifyOps is the length of the generated op list; a window longer
	// than one pass over it starts again from the top. Classification is
	// never cached, so a second pass costs the daemon the same work.
	classifyOps = 8192
)

// classifyBlock fixes the op mix of every block of eight requests, so the
// latency median sits among the single-kernel requests and the tail among
// the batches on every seed.
var classifyBlock = []string{"single", "single", "single", "single", "batch", "family", "family", "ptx"}

// labelled is one kernel with its ground-truth classes by instruction index.
type labelled struct {
	src  string
	want map[int]string
}

type familyCase struct {
	spec     families.Spec
	want     map[int]string
	det, non int // the family's expected class counts
}

type classifyOp struct {
	kind    string
	kernels []int // pool indices: one, or batchItems for a batch
	family  int
}

type classifyInput struct {
	kernels  []labelled
	families []familyCase
	ops      []classifyOp
}

func wantOf(c *kgen.Case) map[int]string {
	m := make(map[int]string, len(c.Want))
	for idx, cls := range c.Want {
		m[idx] = cls.String()
	}
	return m
}

// genClassify builds the payload pool and the op list from the seed.
func genClassify(seed int64) (*classifyInput, error) {
	in := &classifyInput{}
	for k := 0; k < classifyKernels; k++ {
		c, err := kgen.Build(kgen.Generate(seed*10_000+int64(k), kgen.DefaultConfig()))
		if err != nil {
			return nil, fmt.Errorf("kgen kernel %d: %w", k, err)
		}
		in.kernels = append(in.kernels, labelled{src: c.Kernel.Disassemble(), want: wantOf(c)})
	}
	rng := rand.New(rand.NewSource(seed))
	names := families.Names()
	for i := 0; i < classifyFamilies; i++ {
		f, _ := families.Get(names[i%len(names)])
		spec := families.Spec{Name: f.Name, Knobs: map[string]int{}}
		for _, k := range f.Knobs {
			v := k.Min + rng.Intn(k.Max-k.Min+1)
			if k.Pow2 {
				v = k.Min
				for steps := rng.Intn(4); steps > 0 && v*2 <= k.Max; steps-- {
					v *= 2
				}
			}
			spec.Knobs[k.Name] = v
		}
		c, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", f.Name, err)
		}
		_, vals, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		det, non := f.ExpectedClasses(vals)
		in.families = append(in.families, familyCase{spec: spec, want: wantOf(c), det: det, non: non})
	}
	for len(in.ops) < classifyOps {
		for _, j := range rng.Perm(len(classifyBlock)) {
			op := classifyOp{kind: classifyBlock[j]}
			switch op.kind {
			case "batch":
				op.kernels = rng.Perm(classifyKernels)[:batchItems]
			case "family":
				op.family = rng.Intn(classifyFamilies)
			default:
				op.kernels = []int{rng.Intn(classifyKernels)}
			}
			in.ops = append(in.ops, op)
		}
	}
	in.ops = in.ops[:classifyOps]
	return in, nil
}

// checkLoads compares one classified kernel with its ground truth.
func checkLoads(loads []client.Load, det, non int, want map[int]string) error {
	if len(loads) != len(want) || det+non != len(want) {
		return fmt.Errorf("%d loads (D=%d N=%d), want %d", len(loads), det, non, len(want))
	}
	gotDet := 0
	for _, l := range loads {
		pc, err := strconv.ParseUint(strings.TrimPrefix(l.PC, "0x"), 16, 32)
		if err != nil {
			return fmt.Errorf("bad pc %q", l.PC)
		}
		w, ok := want[int(pc)/8]
		if !ok || w != l.Class {
			return fmt.Errorf("load at %s classified %s, want %q", l.PC, l.Class, w)
		}
		if l.Class == dataflow.Deterministic.String() {
			gotDet++
		}
	}
	if gotDet != det {
		return fmt.Errorf("kernel reports D=%d, loads say %d", det, gotDet)
	}
	return nil
}

func checkKernels(ks []client.Kernel, want map[int]string) error {
	if len(ks) != 1 {
		return fmt.Errorf("%d kernels, want 1", len(ks))
	}
	return checkLoads(ks[0].Loads, ks[0].Deterministic, ks[0].NonDeterministic, want)
}

// classifyCall sends op i and checks every answer against the labels. It
// returns the number of kernels classified.
func classifyCall(ctx context.Context, cl *client.Client, in *classifyInput, op classifyOp,
	flip bool) (int, error) {
	switch op.kind {
	case "single":
		k := in.kernels[op.kernels[0]]
		res, err := cl.Classify(ctx, k.src)
		if err != nil {
			return 0, err
		}
		if flip && len(res.Kernels) > 0 && len(res.Kernels[0].Loads) > 0 {
			l := &res.Kernels[0].Loads[0]
			l.Class = map[bool]string{true: "non-deterministic", false: "deterministic"}[l.Class == "deterministic"]
		}
		return 1, checkKernels(res.Kernels, k.want)
	case "batch":
		items := make([]client.BatchItem, len(op.kernels))
		for j, idx := range op.kernels {
			items[j] = client.BatchItem{ID: strconv.Itoa(idx), PTX: in.kernels[idx].src}
		}
		res, err := cl.ClassifyBatch(ctx, items)
		if err != nil {
			return 0, err
		}
		if len(res.Items) != len(items) || res.Failed != 0 {
			return 0, fmt.Errorf("batch: %d items back, %d failed", len(res.Items), res.Failed)
		}
		for j, it := range res.Items {
			if it.ID != items[j].ID || !it.OK() || it.Result == nil {
				return 0, fmt.Errorf("batch item %d: status %d id %q", j, it.Status, it.ID)
			}
			if err := checkKernels(it.Result.Kernels, in.kernels[op.kernels[j]].want); err != nil {
				return 0, fmt.Errorf("batch item %d: %w", j, err)
			}
		}
		return len(items), nil
	case "family":
		f := in.families[op.family]
		res, err := cl.ClassifyFamily(ctx, client.FamilySpec{Name: f.spec.Name, Knobs: f.spec.Knobs})
		if err != nil {
			return 0, err
		}
		if err := checkKernels(res.Kernels, f.want); err != nil {
			return 0, err
		}
		if k := res.Kernels[0]; k.Deterministic != f.det || k.NonDeterministic != f.non {
			return 0, fmt.Errorf("family %s: D=%d N=%d, family expects D=%d N=%d",
				f.spec.Name, k.Deterministic, k.NonDeterministic, f.det, f.non)
		}
		return 1, nil
	case "ptx":
		k := in.kernels[op.kernels[0]]
		res, err := cl.SubmitPTX(ctx, k.src)
		if err != nil {
			return 0, err
		}
		if len(res.Kernels) != 1 {
			return 0, fmt.Errorf("ptx: %d kernels, want 1", len(res.Kernels))
		}
		pk := res.Kernels[0]
		return 1, checkLoads(pk.Loads, pk.Deterministic, pk.NonDeterministic, k.want)
	}
	return 0, fmt.Errorf("unknown op %q", op.kind)
}

func runClassify(ctx context.Context, e *env) (*phase, error) {
	p := newPhase()
	var in *classifyInput
	var d *benchDaemon
	err := repeatSetup(p, e, func(rep int) (func() error, error) {
		var err error
		if in, err = genClassify(e.seed); err != nil {
			return nil, err
		}
		if d, err = startDaemon(daemonOpts{dataDir: e.dir, tracer: e.tr}); err != nil {
			return nil, err
		}
		cl, err := client.New(client.Config{BaseURL: d.url})
		if err != nil {
			return d.close, err
		}
		defer cl.Close()
		_, err = classifyCall(ctx, cl, in, classifyOp{kind: "single", kernels: []int{rep}}, false)
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

	spanNames := map[string]string{"single": "client.classify", "batch": "client.batch",
		"family": "client.family", "ptx": "client.ptx"}
	p.hostBase = readHost()
	p.samples, p.elapsed, err = closedLoop(ctx, []int{0}, math.MaxInt, time.Now().Add(e.window),
		func(ctx context.Context, i int) sample {
			op := in.ops[i%len(in.ops)]
			var sp *openSpan
			if e.tr != nil {
				sp = e.tr.begin(spanNames[op.kind], spanRef{})
				ctx = withSpan(ctx, sp.ref)
			}
			t0 := time.Now()
			n, err := classifyCall(ctx, cl, in, op, e.plant == "label" && i == 0)
			lat := time.Since(t0)
			if sp != nil {
				sp.endAt(t0.Add(lat))
			}
			return sample{kind: op.kind, lat: lat, units: n, err: err}
		})
	p.hostEnd = readHost()
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		p.attempted++
		if s.err != nil {
			p.fail("%s op %d: %v", s.kind, s.index, s.err)
		}
	}
	p.latency = latencies(p.samples, anyKind)
	p.opsPerS = float64(unitsDone(p.samples, anyKind)) / p.elapsed.Seconds()
	p.detail["classify_kernels_per_s"] = p.opsPerS
	p.detail["classify_latency_p50_ms"] = median(p.latency)
	p.detail["classify_latency_p99_ms"] = quantile(p.latency, 0.99)
	p.counts["classify_latency"] = len(p.latency)
	var retries int64
	for _, op := range cl.Stats() {
		retries += op.Retries
	}
	p.layer["client.retries"] = float64(retries)
	kinds := map[string]int{}
	for _, s := range p.samples {
		kinds[s.kind]++
	}
	for _, k := range []string{"single", "batch", "family", "ptx"} {
		p.props["share."+k] = ratio(float64(kinds[k]), float64(len(p.samples)))
	}

	// Untimed verification: classify the whole pool once and record the
	// class totals.
	for start := 0; start < classifyKernels; start += batchItems {
		op := classifyOp{kind: "batch"}
		for k := start; k < min(start+batchItems, classifyKernels); k++ {
			op.kernels = append(op.kernels, k)
		}
		if _, err := classifyCall(ctx, cl, in, op, false); err != nil {
			p.fail("pool batch at %d: %v", start, err)
		}
	}
	for i := range in.families {
		if _, err := classifyCall(ctx, cl, in, classifyOp{kind: "family", family: i}, false); err != nil {
			p.fail("pool family %d: %v", i, err)
		}
	}
	for _, k := range in.kernels {
		for _, cls := range k.want {
			p.determinism["kgen."+cls]++
		}
	}
	for _, f := range in.families {
		p.determinism["families.deterministic"] += uint64(f.det)
		p.determinism["families.non-deterministic"] += uint64(f.non)
	}
	if e.tr != nil {
		classifyLayers(p, in)
	}
	return p, nil
}

// classifyLayers times the parser, the classifier and the family builder
// directly on the same payloads the window sent.
func classifyLayers(p *phase, in *classifyInput) {
	var parse, classify []float64
	var loads int
	var classifyTime time.Duration
	for _, k := range in.kernels {
		t0 := time.Now()
		prog, err := ptx.Parse(k.src)
		t1 := time.Now()
		if err != nil {
			p.fail("direct parse: %v", err)
			continue
		}
		res := dataflow.ClassifyProgram(prog)
		t2 := time.Now()
		parse = append(parse, float64(t1.Sub(t0).Nanoseconds())/1e3)
		classify = append(classify, float64(t2.Sub(t1).Nanoseconds())/1e3)
		classifyTime += t2.Sub(t1)
		for _, r := range res {
			loads += len(r.Loads)
		}
	}
	var build []float64
	for _, f := range in.families {
		t0 := time.Now()
		if _, err := f.spec.Build(); err != nil {
			p.fail("direct family build: %v", err)
		}
		build = append(build, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	p.layer["ptx.parse_us.p50"] = median(parse)
	p.layer["dataflow.classify_us.p50"] = median(classify)
	p.layer["dataflow.loads_per_s"] = ratio(float64(loads), classifyTime.Seconds())
	p.layer["families.build_ms.p50"] = median(build)
}
