// Package serve is the model-serving layer behind cmd/ipsd: a versioned
// in-memory model registry with atomic hot-swap, a per-model batching
// admission gate, and stdlib net/http handlers for classification and
// shapelet-transform requests.
//
// The serving path is built directly on the substrate the earlier PRs laid
// down.  Saved models (core.LoadModelFile) load into registry slots whose
// active version is an atomic pointer: a hot-swap publishes a fully built
// immutable version in one store, in-flight batches keep the version they
// resolved (old versions drain, they are never torn out from under a
// request), and every batch group resolves the pointer exactly once so no
// request can observe half of one model and half of another.
//
// Requests are admitted through a bounded per-model queue drained by a
// per-model worker pool.  Each worker coalesces whatever is queued (up to
// Config.MaxBatch) into one shapelet-transform pass over the version's
// immutable dist.Batch, which every concurrent request shares; per-model
// pools isolate a hot model from starving the others.  Overload is explicit
// and typed: a full queue maps to errs.ErrOverload (HTTP 429), a draining
// server or retired model to errs.ErrUnavailable (HTTP 503), and a deadline
// that fires while a request waits in the queue to errs.ErrCanceled with
// context.DeadlineExceeded (HTTP 504) — the job is skipped, never executed.
//
// Observability rides the existing obs layer: per-route latency histograms
// with streaming p50/p95/p99, admission and batching counters, and — when
// mounted by ipsd — the debug server's pprof/metrics/flight endpoints next
// to the serving routes.
package serve

import (
	"context"
	"sync/atomic"
	"time"

	"ips/internal/obs"
)

// Config parameterises a Server.  The zero value serves with the defaults
// noted on each field.
type Config struct {
	// QueueDepth bounds each model's admission queue (default 256).  A full
	// queue rejects with a typed 429 instead of queueing without bound.
	QueueDepth int
	// MaxBatch caps how many queued requests one worker coalesces into a
	// single transform pass (default 64).
	MaxBatch int
	// WorkersPerModel sizes each model's worker pool (default 1).  Workers
	// parallelise across batch groups; within a group the transform runs
	// sequentially, so responses are byte-identical for any value.
	WorkersPerModel int
	// DefaultTimeout is the per-request deadline when the client does not
	// pass ?timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested deadline (default 60s).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 16 MiB); larger bodies
	// get a typed 413.
	MaxBodyBytes int64
	// MaxStreams caps concurrently open streaming sessions (default 1024).
	// A create that would exceed it is refused with a typed 429.
	MaxStreams int
	// MaxStreamPoints caps the total points one streaming session may
	// ingest (default 1<<20).  An append that would exceed it is refused
	// whole with a typed 429 before any state changes.
	MaxStreamPoints int
	// Obs receives metrics (route histograms, admission counters) and the
	// admin-operation spans.  Nil means observability off; the serving path
	// then updates nothing.
	Obs *obs.Observer
	// gateHold, when non-nil (tests only), makes every gate worker wait for
	// one token per batch group, so tests can pile jobs into a queue and
	// observe exactly how they coalesce.
	gateHold chan struct{}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.WorkersPerModel <= 0 {
		c.WorkersPerModel = 1
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.MaxStreamPoints <= 0 {
		c.MaxStreamPoints = 1 << 20
	}
	return c
}

// Server owns the model registry and the admission gates.  Create with
// NewServer, mount its routes with Mount or Handler, stop with Close.
type Server struct {
	cfg      Config
	reg      *registry
	streams  sessionTable
	base     context.Context // lifetime context batch execution runs under
	cancel   context.CancelFunc
	draining atomic.Bool
}

// NewServer builds a server whose batch execution and worker lifetime hang
// off ctx: cancelling it hard-stops in-flight work, while Close drains
// gracefully first.  The logger carried by ctx (obs.WithLogger) becomes the
// serving path's logger.
func NewServer(ctx context.Context, cfg Config) *Server {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Server{cfg: cfg.withDefaults()}
	s.base, s.cancel = context.WithCancel(ctx)
	s.reg = newRegistry(s)
	return s
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain flips the server into drain mode: every subsequent request is
// refused with a typed 503 while already-admitted work keeps executing.
// Call it before shutting the HTTP listener down so load balancers see the
// 503s and stop routing here.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close drains and stops the server: admission closes (503), the per-model
// workers flush whatever is still queued, and the call returns once every
// worker has exited — or when ctx expires, in which case the remaining work
// is hard-cancelled through the base context before returning ctx's error.
// After Close the server no longer executes anything; requests still fail
// typed (503), they do not hang.
func (s *Server) Close(ctx context.Context) error {
	s.StartDrain()
	s.reg.stopGates()
	done := make(chan struct{})
	go func() {
		s.reg.waitGates()
		close(done)
	}()
	defer s.cancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // hard-stop the in-flight batch work
		<-done
		return ctx.Err()
	}
}

// metrics returns the registry the serving path records into (nil-safe).
func (s *Server) metrics() *obs.Registry { return s.cfg.Obs.Metrics() }

// latencyBuckets are the fixed bounds (milliseconds) of the serving latency
// histograms; the P² streaming quantiles ride on the same histograms, so the
// route p50/p95/p99 in /metrics do not depend on these edges.
var latencyBuckets = []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
