package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation of the timed window.
type sample struct {
	index int    // position in the workload's generated op list
	kind  string // what the workload sent, e.g. "sim", "repeat", "batch"
	lat   time.Duration
	units int // work items the op completed (batch items, jobs)
	err   error
}

// closedLoop runs ops from a generated list with benchClients clients,
// each sending its next op only after the previous one completed, and
// stops them taking new ops once the deadline passes. With one cursor in
// next the clients share the list in order; with one cursor per client,
// client c owns positions c, c+benchClients, ... and runs them in
// sequence. next is advanced past every position taken. It returns the
// samples in list order and the time until the last op completed.
func closedLoop(ctx context.Context, next []int, n int, deadline time.Time,
	do func(ctx context.Context, i int) sample) ([]sample, time.Duration, error) {
	var (
		shared  atomic.Int64
		mu      sync.Mutex
		out     []sample
		wg      sync.WaitGroup
		starved atomic.Bool
	)
	shared.Store(int64(next[0]))
	start := time.Now()
	for c := 0; c < benchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				var i int
				if len(next) == 1 {
					i = int(shared.Add(1) - 1)
				} else {
					i = c + benchClients*next[c]
					next[c]++
				}
				if i >= n {
					starved.Store(true)
					return
				}
				s := do(ctx, i)
				s.index = i
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(next) == 1 {
		next[0] = int(min(shared.Load(), int64(n)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	if starved.Load() {
		return out, elapsed, fmt.Errorf("op list of %d exhausted before the deadline", n)
	}
	return out, elapsed, ctx.Err()
}

// quantile is the linear-interpolation quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies returns the latencies in milliseconds of successful samples
// whose kind passes keep.
func latencies(ss []sample, keep func(kind string) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.err == nil && keep(s.kind) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	return out
}

func kindIs(kinds ...string) func(string) bool {
	return func(k string) bool {
		for _, want := range kinds {
			if k == want {
				return true
			}
		}
		return false
	}
}

func anyKind(string) bool { return true }

// unitsDone sums the work units of successful samples.
func unitsDone(ss []sample, keep func(kind string) bool) int {
	n := 0
	for _, s := range ss {
		if s.err == nil && keep(s.kind) {
			n += s.units
		}
	}
	return n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
