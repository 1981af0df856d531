// Package serve is the model-serving layer behind cmd/ipsd: a versioned
// in-memory model registry with atomic hot-swap, a per-model admission gate,
// and stdlib net/http handlers for classification, shapelet-transform and
// streaming requests.
//
// The serving path is built directly on the substrate the earlier PRs laid
// down.  Saved models (core.LoadModelFile) load into registry slots whose
// active version is an atomic pointer: a hot-swap publishes a fully built
// immutable version in one store, in-flight requests keep the version they
// resolved (old versions drain, they are never torn out from under a
// request), and every request resolves the pointer exactly once so it can
// never observe half of one model and half of another.
//
// Every POST to a work route (classify, transform, stream) has one
// lifetime: it enters the server, or is refused with a typed 503 once the
// drain has begun, and it stays in one server-wide in-flight group until
// its handler returns.  Close waits on that group, so a graceful Close lets
// an admitted evaluation or stream append finish.
//
// Each request is evaluated on its own handler goroutine.  Classifying a
// series is a pure function of the model version and that one series, so
// requests share nothing but the version's immutable dist.Batch.  A
// per-model gate bounds the work: a request takes one of WorkersPerModel
// tokens (each token carries the arena the evaluation runs in), and at most
// QueueDepth requests wait for one, so a hot model cannot starve the others.
// Overload is explicit and typed: a full wait count maps to errs.ErrOverload
// (HTTP 429), a draining server or retired model to errs.ErrUnavailable
// (HTTP 503), and a deadline that fires while a request waits for a token to
// errs.ErrCanceled with context.DeadlineExceeded (HTTP 504) — the request is
// never executed.
//
// Observability rides the existing obs layer: per-route latency histograms
// with streaming p50/p95/p99, admission and evaluation counters, and — when
// mounted by ipsd — the debug server's pprof/metrics/flight endpoints next
// to the serving routes.
package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/errs"
	"ips/internal/obs"
)

// Config parameterises a Server.  The zero value serves with the defaults
// noted on each field.
type Config struct {
	// QueueDepth bounds how many requests may wait for one of a model's
	// tokens (default 256).  Past it a request is rejected with a typed 429
	// instead of waiting without bound.
	QueueDepth int
	// WorkersPerModel is the number of a model's requests that may evaluate
	// at once (default 1), each in its own reusable arena.  A request's
	// instances evaluate sequentially, so responses are byte-identical for
	// any value.
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
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
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
	cfg     Config
	reg     *registry
	streams sessionTable
	base    context.Context // cancelled by Close's hard stop
	cancel  context.CancelFunc

	// mu orders enter against StartDrain: a request either joins inflight
	// before the drain begins, so Close waits for it, or is refused.
	mu       sync.Mutex
	draining atomic.Bool    // set under mu
	inflight sync.WaitGroup // admitted work requests until their handlers return
}

// NewServer builds a server whose evaluations hang off ctx: cancelling it
// hard-stops in-flight work, while Close drains gracefully first.  The
// logger carried by ctx (obs.WithLogger) becomes the serving path's logger.
func NewServer(ctx context.Context, cfg Config) *Server {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Server{cfg: cfg.withDefaults()}
	s.base, s.cancel = context.WithCancel(ctx)
	s.reg = newRegistry(s)
	s.streams.open = s.metrics().Gauge("serve.streams.open")
	return s
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain flips the server into drain mode: every subsequent request is
// refused with a typed 503 while already-admitted work keeps executing.
// Call it before shutting the HTTP listener down so load balancers see the
// 503s and stop routing here.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
}

// enter admits one work request into the in-flight group Close waits on,
// or refuses it with a typed 503 once the drain has begun.  An admitted
// request must call s.inflight.Done when its handler returns.
func (s *Server) enter(route string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return errs.Unavailable(errs.StageServe, "serve."+route, "", "server is draining")
	}
	s.inflight.Add(1)
	return nil
}

// Close drains and stops the server: admission closes (503), requests
// already admitted on any work route — evaluating, waiting for a token or
// appending to a stream — finish, and the call returns once every one of
// them has returned.  When ctx expires first, the remaining requests are
// hard-cancelled through the base context (each answers a typed
// cancellation, and a body read blocked on a stalled client is ended) and
// Close returns ctx's error once they have; a write blocked on a client that
// stopped reading ends only with its connection (http.Server.Close).  After
// Close the server no longer executes anything; requests still fail typed
// (503), they do not hang.
func (s *Server) Close(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	defer s.cancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // hard-stop the admitted requests
		<-done
		return ctx.Err()
	}
}

// metrics returns the registry the serving path records into (nil-safe).
func (s *Server) metrics() *obs.Registry { return s.cfg.Obs.Metrics() }

// latencyBuckets are the fixed bounds (milliseconds) of the serving latency
// histograms; the P² streaming quantiles ride on the same histograms, so the
// route p50/p95/p99 in /metrics do not depend on these edges.  The
// sub-millisecond bounds are there because one small model's evaluation can
// finish well inside the first half millisecond, and a bucket-interpolated
// median (perfbench's serve.batch_p50_ms) can only resolve what the bounds
// separate.
var latencyBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
