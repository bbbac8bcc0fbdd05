package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"critload/internal/jobs"
)

// spanHeader carries "<trace>/<span>" from the client to the handler
// wrapper, so a request's client and server spans share one trace id.
const spanHeader = "X-Critbench-Span"

// spanRef names one recorded span: the request (trace) it belongs to and
// its own id.
type spanRef struct{ trace, id uint64 }

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the union of child spans
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// Every span is recorded by the benchmark around a call into a layer's
// public API — nothing inside the program is instrumented.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span
	// jobParents maps a job's cache key to the client span that submitted
	// it, so the runner span an execution records joins that request.
	jobParents map[jobs.Key]spanRef
	sim        simCounters
}

// simCounters are counts taken at the simulator boundary by the traced
// runner, so ratios such as host time per simulated cycle are measured
// where the work happens.
type simCounters struct {
	launchNanos, cycles [numClasses]int64
	skipped             int64
	timingWarpInsts     uint64
	emuNanos            int64
	emuWarpInsts        uint64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), jobParents: map[jobs.Key]spanRef{}}
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanCtxKey{}).(spanRef)
	return r, ok
}

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	name   string
	ref    spanRef
	parent uint64
	start  time.Time
}

// begin starts a span under parent; a zero parent starts a new trace.
func (t *tracer) begin(name string, parent spanRef) *openSpan {
	id := t.ids.Add(1)
	ref := spanRef{trace: parent.trace, id: id}
	if ref.trace == 0 {
		ref.trace = id
	}
	return &openSpan{t: t, name: name, ref: ref, parent: parent.id, start: time.Now()}
}

func (o *openSpan) end() { o.endAt(time.Now()) }

func (o *openSpan) endAt(end time.Time) {
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{
		Name: o.name, Trace: o.ref.trace, ID: o.ref.id, Parent: o.parent,
		Start: int64(o.start.Sub(o.t.origin)), End: int64(end.Sub(o.t.origin)),
	})
	o.t.mu.Unlock()
}

// expectJob records which client span submitted the job with this key.
func (t *tracer) expectJob(k jobs.Key, parent spanRef) {
	t.mu.Lock()
	t.jobParents[k] = parent
	t.mu.Unlock()
}

// wrapRunner times every execution the manager hands its runner.
func (t *tracer) wrapRunner(inner jobs.Runner) jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec) (any, error) {
		t.mu.Lock()
		parent := t.jobParents[spec.Key()]
		t.mu.Unlock()
		sp := t.begin("jobs.exec", parent)
		defer sp.end()
		return inner(withSpan(ctx, sp.ref), spec)
	}
}

// serverSpanName maps a request to the handler span it records.
func serverSpanName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/classify":
		return "server.classify"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/classify/batch":
		return "server.batch"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/ptx":
		return "server.ptx"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "server.submit"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "server.poll"
	}
	return "server.other"
}

// wrapHandler times every request at the http.Handler boundary of
// server.New, joined to the client span named in spanHeader.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := parseSpanHeader(r.Header.Get(spanHeader))
		sp := t.begin(serverSpanName(r), parent)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.ref)))
		sp.end()
	})
}

func parseSpanHeader(v string) (spanRef, bool) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return spanRef{}, false
	}
	tr, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{trace: tr, id: id}, err1 == nil && err2 == nil
}

// spanTransport stamps the caller's current span onto each outgoing request.
type spanTransport struct{ base http.RoundTripper }

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := spanFrom(r.Context()); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.trace, ref.id))
	}
	return s.base.RoundTrip(r)
}

// tracedHTTPClient is the pkg/client transport for traced runs, sized like
// the client's own default pool.
func tracedHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 512
	tr.MaxIdleConnsPerHost = 512
	return &http.Client{Transport: spanTransport{base: tr}}
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			cs := t.spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		s.Self = s.End - s.Start - unionLen(ivs)
	}
	return t.spans
}

// unionLen is the total length covered by possibly overlapping intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	return total + curHi - curLo
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func summarize(spans []span) map[string]spanSummary {
	durs := map[string][]float64{}
	out := map[string]spanSummary{}
	for _, s := range spans {
		ms := float64(s.End-s.Start) / 1e6
		durs[s.Name] = append(durs[s.Name], ms)
		sum := out[s.Name]
		sum.Count++
		sum.TotalMS += ms
		sum.SelfMS += float64(s.Self) / 1e6
		out[s.Name] = sum
	}
	for name, d := range durs {
		sum := out[name]
		sum.P50MS = quantile(d, 0.5)
		out[name] = sum
	}
	return out
}

// writeTrace writes the spans and their per-name summary as one JSON file.
func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Summary map[string]spanSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{summarize(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
