package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ips"
	"ips/internal/obs"
	"ips/internal/serve"
)

// connections is the number of client connections, and so the most
// requests in flight: the box the benchmark was defined on has two CPUs.
const connections = 2

// harness is one in-process ipsd: a serve.Server configured as ipsd
// configures it by default — the zero-value serve.Config (one gate worker
// per model, queue 256, batch 64) with an Observer on Config.Obs, so its
// serve.* metrics are on — behind an http.Server on a loopback listener.
// serve records no per-request spans, so the metrics are not tracing.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
	// timing wraps the server's handler in the traced run; nil otherwise.
	timing *timingHandler
}

// startHarness registers m under name and starts serving, with o on
// serve.Config.Obs.  timed wraps the handler in a timingHandler.
func startHarness(ctx context.Context, m *ips.Model, name string, o *obs.Observer, timed bool) (*harness, error) {
	srv := serve.NewServer(ctx, serve.Config{Obs: o})
	if _, err := srv.Register(ctx, name, "perfbench", m); err != nil {
		return nil, errors.Join(err, srv.Close(ctx))
	}
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close(ctx))
	}
	h := &harness{srv: srv, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	var handler http.Handler = srv.Handler()
	if timed {
		h.timing = &timingHandler{next: handler}
		handler = h.timing
	}
	h.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for the serving goroutine, and drains the
// serve.Server.
func (h *harness) close(ctx context.Context) error {
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, h.srv.Close(ctx))
}

// timingHandler times every request inside the server's ServeHTTP.
type timingHandler struct {
	next     http.Handler
	mu       sync.Mutex
	classify samples // POST /v1/classify, ms
	appends  samples // POST /v1/stream?session=…, ms
}

func (t *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := obs.NewStopwatch()
	t.next.ServeHTTP(w, r)
	d := sw.Elapsed()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case r.URL.Path == "/v1/classify":
		t.classify.addDur(d)
	case r.URL.Path == "/v1/stream" && r.Method == http.MethodPost && r.URL.Query().Has("session"):
		t.appends.addDur(d)
	}
}

// take returns the recorded samples and starts afresh.
func (t *timingHandler) take() (classify, appends samples) {
	t.mu.Lock()
	defer t.mu.Unlock()
	classify, appends = t.classify, t.appends
	t.classify, t.appends = nil, nil
	return classify, appends
}

// conn is one client connection: a transport that never opens a second one.
type conn struct {
	tr   *http.Transport
	c    *http.Client
	base string
}

func newConns(base string) []*conn {
	out := make([]*conn, connections)
	for i := range out {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = &conn{tr: tr, c: &http.Client{Transport: tr}, base: base}
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// do sends one request and decodes a 200 response's JSON body into out.  A
// transport error or any other status is an error.
func (c *conn) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.c.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// phase is the outcome of one load phase.
type phase struct {
	lat  samples // ms, from due time (open loop) or send time (closed loop)
	sent samples // ms, open loop only: from send time
	lag  samples // ms, how late each open-loop request was sent
	wall time.Duration
}

func (p *phase) merge(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.sent = append(p.sent, q.sent...)
	p.lag = append(p.lag, q.lag...)
	p.wall += q.wall
}

// sendFunc sends one request on c and checks its response.
type sendFunc func(ctx context.Context, c *conn) error

// openLoop sends requests at seeded exponential gaps — independent clients
// at rate req/s — for dur, spread over the connections.  Each request is
// timed from its due time, so a request that waits for a free connection
// or a late generator counts the wait.
func openLoop(ctx context.Context, conns []*conn, rate float64, dur time.Duration, seed int64, send sendFunc) phase {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		due = append(due, at)
	}
	var next atomic.Int64
	parts := make([]phase, len(conns))
	sw := obs.NewStopwatch()
	var wg sync.WaitGroup
	for ci := range conns {
		wg.Add(1)
		go func(c *conn, p *phase) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				if wait := due[i] - sw.Elapsed(); wait > 0 {
					time.Sleep(wait)
				}
				sent := sw.Elapsed()
				p.lag.addDur(sent - due[i])
				if send(ctx, c) == nil {
					done := sw.Elapsed()
					p.lat.addDur(done - due[i])
					p.sent.addDur(done - sent)
				}
			}
		}(conns[ci], &parts[ci])
	}
	wg.Wait()
	out := phase{wall: sw.Elapsed()}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// closedLoop keeps every connection busy, each sending its next request as
// soon as the previous one returns, for dur.
func closedLoop(ctx context.Context, conns []*conn, dur time.Duration, send sendFunc) phase {
	parts := make([]phase, len(conns))
	sw := obs.NewStopwatch()
	var wg sync.WaitGroup
	for ci := range conns {
		wg.Add(1)
		go func(c *conn, p *phase) {
			defer wg.Done()
			for sw.Elapsed() < dur && ctx.Err() == nil {
				start := sw.Elapsed()
				if send(ctx, c) == nil {
					p.lat.addDur(sw.Elapsed() - start)
				}
			}
		}(conns[ci], &parts[ci])
	}
	wg.Wait()
	out := phase{wall: sw.Elapsed()}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}
