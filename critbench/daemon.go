package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"critload/internal/checkpoint"
	"critload/internal/daemon"
	"critload/internal/jobs"
	"critload/internal/server"
)

// Load shape shared by every workload: a closed loop of two clients against
// two simulation workers, the way sweep scripts and tooling wait on each
// reply.
const (
	benchWorkers = 2
	benchClients = 2
)

// checkpointBudget bounds the reuse workload's checkpoint directory. Every
// sweep saves a device snapshot at each launch boundary, so an unbounded
// store would grow by megabytes per second of load; the budget makes the
// store evict the way a deployed critloadd with -cache-disk-bytes does.
const checkpointBudget = 64 << 20

// daemonOpts selects how an in-process critloadd is assembled.
type daemonOpts struct {
	// dataDir holds the journal and the result store (always durable here).
	dataDir string
	// checkpoints enables the checkpoint store under dataDir/checkpoints.
	checkpoints bool
	// tracer, when non-nil, wraps the HTTP handler and the job runner.
	tracer *tracer
	// runner replaces server.SimRunnerWith (traced cold-sim only, which
	// runs without checkpoints).
	runner jobs.Runner
}

// benchDaemon is critloadd assembled from the same public constructors
// internal/daemon.Run uses, serving on a loopback port in this process.
type benchDaemon struct {
	mgr      *jobs.Manager
	ckpts    *checkpoint.Store
	srv      *http.Server
	url      string
	served   chan error
	recovery time.Duration // NewManager wall time: journal replay + recovery
}

func startDaemon(o daemonOpts) (*benchDaemon, error) {
	var ckpts *checkpoint.Store
	if o.checkpoints {
		var err error
		ckpts, err = checkpoint.Open(filepath.Join(o.dataDir, "checkpoints"), checkpointBudget)
		if err != nil {
			return nil, fmt.Errorf("opening checkpoint store: %w", err)
		}
	}
	results, err := jobs.OpenResultStore(filepath.Join(o.dataDir, "results"), 0)
	if err != nil {
		return nil, fmt.Errorf("opening result store: %w", err)
	}
	runner := server.SimRunnerWith(ckpts)
	if o.runner != nil {
		runner = o.runner
	}
	if o.tracer != nil {
		runner = o.tracer.wrapRunner(runner)
	}
	t0 := time.Now()
	mgr, err := jobs.NewManager(jobs.Config{
		Workers:    benchWorkers,
		Runner:     runner,
		Results:    results,
		JournalDir: filepath.Join(o.dataDir, "journal"),
	})
	if err != nil {
		return nil, err
	}
	d := &benchDaemon{mgr: mgr, ckpts: ckpts, recovery: time.Since(t0), served: make(chan error, 1)}
	var h http.Handler = server.New(mgr, server.WithCheckpoints(ckpts))
	if o.tracer != nil {
		h = o.tracer.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = daemon.NewAPIServer(ln.Addr().String(), h, daemon.DefaultIdleTimeout)
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close drains the daemon the way critloadd shuts down: stop HTTP, then
// drain and compact the job tier. It returns once the serve goroutine has
// exited.
func (d *benchDaemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, d.mgr.Close(ctx))
}
