// Command ipsd is the IPS model-serving daemon: it loads trained models
// saved by `ips -save` into a versioned in-memory registry and serves
// classification and shapelet-transform requests over HTTP, with per-model
// admission control, typed backpressure, and live observability.
//
// Usage:
//
//	ipsd -model prod=model.json                        # serve one model
//	ipsd -model a=a.json -model b=b.json -addr :9090   # several models
//
// Routes:
//
//	POST   /v1/classify?model=NAME[&timeout_ms=N]   predictions for instances
//	POST   /v1/transform?model=NAME[&timeout_ms=N]  shapelet-transform features
//	POST   /v1/stream?model=NAME[&window=N]         open a streaming session
//	POST   /v1/stream?session=ID                    append points, get prediction + drift
//	DELETE /v1/stream?session=ID                    close a streaming session
//	GET    /admin/models                            registry listing
//	POST   /admin/models                            {"action":"load"|"alias"|"retire", ...}
//	GET    /healthz                                 200 serving, 503 draining
//
// Request bodies are application/json ({"instances": [[...], ...]}, or
// {"points": [...]} on the streaming route) or text/tab-separated-values
// (UCR TSV rows; the label column is ignored).  Backpressure is typed: 429
// when a model's queue is full or the streaming session/point caps are hit,
// 503 while draining or for a retired model, 504 when the request deadline
// fires.  Streaming sessions pin the model version they were created
// against, so a hot-swap never changes an open session's predictions.
//
// Flags:
//
//	-addr ADDR          listen address (default :8080)
//	-model NAME=PATH    load a model file under NAME at startup (repeatable)
//	-alias ALIAS=NAME   route ALIAS to NAME (repeatable, after -model)
//	-queue N            requests that may wait per model (default 256)
//	-workers N          requests evaluating at once per model (default 1)
//	-timeout D          default per-request deadline (default 10s)
//	-max-timeout D      cap on client-requested deadlines (default 60s)
//	-max-body N         request body cap in bytes (default 16 MiB)
//	-max-streams N      concurrently open streaming sessions (default 1024)
//	-stream-points N    total points one streaming session may ingest (default 1048576)
//	-drain-timeout D    graceful shutdown budget on SIGINT/SIGTERM (default 15s)
//
// Observability (see internal/obs):
//
//	-debug-addr ADDR    serve net/http/pprof, expvar, /metrics, /metrics.json,
//	                    and the flight recorder at /debug/flight on ADDR
//	-log-level L        structured logging to stderr: off, debug, info
//	                    (default), warn, or error
//	-log-json           emit structured logs as JSON instead of text
//
// On SIGINT/SIGTERM the daemon drains: /healthz flips to 503, new eval
// requests are refused typed, admitted work completes (bounded by
// -drain-timeout), then the process exits 0.  The signal only starts the
// drain; it cancels no request.  Past the budget, open connections close,
// admitted work is cancelled and the process exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ips/internal/obs"
	"ips/internal/serve"
)

// pairList collects repeatable NAME=VALUE flags in order.
type pairList struct {
	pairs [][2]string
	what  string
}

func (p *pairList) String() string { return "" }

func (p *pairList) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok || name == "" || val == "" {
		return fmt.Errorf("want %s, got %q", p.what, v)
	}
	p.pairs = append(p.pairs, [2]string{name, val})
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	models := &pairList{what: "NAME=PATH"}
	flag.Var(models, "model", "load a model file under NAME at startup, as NAME=PATH (repeatable)")
	aliases := &pairList{what: "ALIAS=NAME"}
	flag.Var(aliases, "alias", "route ALIAS to model NAME, as ALIAS=NAME (repeatable)")
	queue := flag.Int("queue", 256, "requests that may wait per model")
	workers := flag.Int("workers", 1, "requests evaluating at once per model")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
	maxBody := flag.Int64("max-body", 16<<20, "request body cap in bytes")
	maxStreams := flag.Int("max-streams", 1024, "concurrently open streaming sessions")
	streamPoints := flag.Int("stream-points", 1<<20, "total points one streaming session may ingest")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
	debugAddr := flag.String("debug-addr", "", "serve pprof, /metrics, and /debug/flight on this address (e.g. :6060)")
	logLevel := flag.String("log-level", "info", "structured log level: off, debug, info, warn, or error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipsd:", err)
		return 2
	}
	if len(models.pairs) == 0 {
		fmt.Fprintln(os.Stderr, "ipsd: need at least one -model NAME=PATH")
		return 2
	}

	ctx, stop := signal.NotifyContext(obs.WithLogger(context.Background(), logger), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := obs.New("ipsd")
	s, hs := newDaemon(ctx, *addr, serve.Config{
		QueueDepth:      *queue,
		WorkersPerModel: *workers,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxBodyBytes:    *maxBody,
		MaxStreams:      *maxStreams,
		MaxStreamPoints: *streamPoints,
		Obs:             o,
	})
	for _, p := range models.pairs {
		if _, err := s.LoadFile(ctx, p[0], p[1]); err != nil {
			fmt.Fprintf(os.Stderr, "ipsd: loading %s from %s: %v\n", p[0], p[1], err)
			return 1
		}
	}
	for _, p := range aliases.pairs {
		if _, err := s.Alias(ctx, p[0], p[1]); err != nil {
			fmt.Fprintf(os.Stderr, "ipsd: alias %s=%s: %v\n", p[0], p[1], err)
			return 1
		}
	}

	var flight *obs.FlightRecorder
	if *debugAddr != "" {
		flight = obs.StartFlight(ctx, 100*time.Millisecond, 4096)
		dbg, bound, err := obs.ServeDebug(*debugAddr, o.Metrics(), flight)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipsd: debug server:", err)
			return 1
		}
		defer dbg.Close()
		obs.Log(ctx).Info("debug server up", "addr", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipsd:", err)
		return 1
	}
	obs.Log(ctx).Info("serving", "addr", ln.Addr().String(), "models", len(models.pairs))

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "ipsd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: flip admission to 503, let the listener finish
	// in-flight requests, then close the server (which waits for every
	// admitted request), all under the drain budget.
	obs.Log(ctx).Info("draining", "budget", drainTimeout.String())
	s.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(obs.WithLogger(context.Background(), logger), *drainTimeout)
	defer cancel()
	err = hs.Shutdown(shutdownCtx)
	if err != nil {
		obs.Log(ctx).Warn("listener shutdown incomplete", "err", err.Error())
		hs.Close() // a client stalled mid-body or not reading must not hold s.Close
	}
	if cerr := s.Close(shutdownCtx); cerr != nil {
		obs.Log(ctx).Warn("drain incomplete", "err", cerr.Error())
		err = cerr
	}
	flight.Stop()
	if err != nil {
		return 1
	}
	obs.Log(ctx).Info("drained cleanly")
	return 0
}

// newDaemon builds the serving stack: the serve.Server and the http.Server
// that mounts its routes.  Both run under context.WithoutCancel(ctx), which
// keeps ctx's logger but not its cancellation, so the shutdown signal
// cancelling ctx only starts the drain: admitted requests and bodies still
// being read complete.
func newDaemon(ctx context.Context, addr string, cfg serve.Config) (*serve.Server, *http.Server) {
	base := context.WithoutCancel(ctx)
	s := serve.NewServer(base, cfg)
	mux := http.NewServeMux()
	s.Mount(mux)
	return s, &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return base },
	}
}
