package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ips/internal/classify"
	"ips/internal/errs"
	"ips/internal/faulty"
	"ips/internal/obs"
	"ips/internal/ts"
)

// gateServer builds a server with the suite model registered as "planted"
// and returns its gate.  Close runs at cleanup (a second Close is a no-op).
func gateServer(t *testing.T, cfg Config) (*Server, *gate) {
	t.Helper()
	m, _ := testModel(t)
	if cfg.Obs == nil {
		cfg.Obs = obs.New("gate-test")
	}
	s := NewServer(context.Background(), cfg)
	if _, err := s.Register(context.Background(), "planted", "test", m); err != nil {
		t.Fatalf("register: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	sl, err := s.reg.resolve("planted")
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return s, sl.gate
}

// holdTokens takes every token of g, so requests admitted afterwards wait
// until releaseTokens hands them back.
func holdTokens(g *gate) []*execScratch {
	held := make([]*execScratch, cap(g.tokens))
	for i := range held {
		held[i] = <-g.tokens
	}
	return held
}

func releaseTokens(g *gate, held []*execScratch) {
	for _, es := range held {
		g.tokens <- es
	}
}

// result is one classify request's outcome through the gate.
type result struct {
	version int64
	preds   []int
	err     error
}

// enterEval classifies one series as the classify route does: it enters s,
// or is refused once the drain has begun, and stays in the in-flight group
// Close waits on until g has evaluated it.
func enterEval(ctx context.Context, s *Server, g *gate, in ts.Series) result {
	if err := s.enter("classify"); err != nil {
		return result{err: err}
	}
	defer s.inflight.Done()
	preds := make([]int, 1)
	v, err := g.eval(ctx, []ts.Series{in}, preds, nil)
	return result{version: v, preds: preds, err: err}
}

// goClassify classifies training instance i through s and g on a new
// goroutine, as a handler does, and delivers the outcome on the returned
// channel.
func goClassify(ctx context.Context, s *Server, g *gate, train *ts.Dataset, i int) <-chan result {
	done := make(chan result, 1)
	go func() { done <- enterEval(ctx, s, g, train.Instances[i].Values) }()
	return done
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitWaiting blocks until exactly n requests wait for a token of g.
func waitWaiting(t *testing.T, g *gate, n int) {
	t.Helper()
	waitFor(t, "waiting requests", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.waiting == n
	})
}

// TestQueueFull429 fills the wait count while every token is held and
// asserts the next request is an immediate typed overload, not a wait.
func TestQueueFull429(t *testing.T) {
	_, train := testModel(t)
	s, g := gateServer(t, Config{QueueDepth: 2})
	held := holdTokens(g)
	r1 := goClassify(context.Background(), s, g, train, 0)
	r2 := goClassify(context.Background(), s, g, train, 1)
	waitWaiting(t, g, 2)

	_, err := g.eval(context.Background(), []ts.Series{train.Instances[2].Values}, make([]int, 1), nil)
	if err == nil {
		t.Fatal("third request succeeded with QueueDepth=2 and every token held")
	}
	if !errors.Is(err, errs.ErrOverload) {
		t.Fatalf("overflow error = %v, want ErrOverload", err)
	}
	if diag := faulty.CheckTyped(err); diag != "" {
		t.Fatal(diag)
	}
	if got := statusFor(err); got != http.StatusTooManyRequests {
		t.Fatalf("statusFor(overload) = %d, want 429", got)
	}
	met := s.metrics()
	if got := met.Counter("serve.admit.rejected").Value(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// The two waiting requests complete once the tokens come back.
	releaseTokens(g, held)
	for i, r := range []<-chan result{r1, r2} {
		if res := <-r; res.err != nil {
			t.Fatalf("waiting request %d: %v", i, res.err)
		}
	}
}

// TestDeadlineInQueue504 lets a request's deadline fire while it waits for
// a token: it must come back as a typed cancellation (504) without ever
// being evaluated.
func TestDeadlineInQueue504(t *testing.T) {
	_, train := testModel(t)
	s, g := gateServer(t, Config{})
	held := holdTokens(g)
	defer releaseTokens(g, held)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res := <-goClassify(ctx, s, g, train, 0) // the deadline fires while it waits
	if res.err == nil {
		t.Fatal("expired request executed")
	}
	if !errors.Is(res.err, errs.ErrCanceled) || !errors.Is(res.err, context.DeadlineExceeded) {
		t.Fatalf("expired request error = %v", res.err)
	}
	if diag := faulty.CheckTyped(res.err); diag != "" {
		t.Fatal(diag)
	}
	if got := statusFor(res.err); got != http.StatusGatewayTimeout {
		t.Fatalf("statusFor(queue deadline) = %d, want 504", got)
	}
	met := s.metrics()
	if got := met.Counter("serve.queue.expired").Value(); got != 1 {
		t.Fatalf("queue.expired = %d, want 1", got)
	}
	// Nothing executed, no transform ran.
	if got := met.Counter("serve.batch.groups").Value(); got != 0 {
		t.Fatalf("batch groups = %d, want 0", got)
	}
	if got := met.Counter("serve.batch.instances").Value(); got != 0 {
		t.Fatalf("batch instances = %d, want 0", got)
	}
}

// TestRetiredInQueue503: a request already waiting for a token when the
// model is retired fails typed once it gets one, rather than running
// against a dead model.
func TestRetiredInQueue503(t *testing.T) {
	_, train := testModel(t)
	s, g := gateServer(t, Config{})
	held := holdTokens(g)
	r := goClassify(context.Background(), s, g, train, 0)
	waitWaiting(t, g, 1)
	if _, err := s.Retire(context.Background(), "planted"); err != nil {
		t.Fatalf("retire: %v", err)
	}
	releaseTokens(g, held)
	res := <-r
	if !errors.Is(res.err, errs.ErrUnavailable) {
		t.Fatalf("retired-while-waiting error = %v, want ErrUnavailable", res.err)
	}
	if got := statusFor(res.err); got != http.StatusServiceUnavailable {
		t.Fatalf("statusFor = %d, want 503", got)
	}
}

// TestCloseFlushesQueue: requests still waiting for a token at Close are
// executed once the token frees, never dropped, and Close does not return
// while they wait.
func TestCloseFlushesQueue(t *testing.T) {
	_, train := testModel(t)
	s, g := gateServer(t, Config{})
	held := holdTokens(g)
	rs := make([]<-chan result, 3)
	for i := range rs {
		rs[i] = goClassify(context.Background(), s, g, train, i)
	}
	waitWaiting(t, g, len(rs))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.Close(ctx) }()
	waitFor(t, "admission to close", s.Draining)
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with three requests still waiting", err)
	default:
	}
	if res := enterEval(context.Background(), s, g, train.Instances[0].Values); !errors.Is(res.err, errs.ErrUnavailable) {
		t.Fatalf("admission during close = %v, want ErrUnavailable", res.err)
	}

	releaseTokens(g, held)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, r := range rs {
		if res := <-r; res.err != nil {
			t.Fatalf("flushed request %d: %v", i, res.err)
		}
	}
	if res := enterEval(context.Background(), s, g, train.Instances[0].Values); !errors.Is(res.err, errs.ErrUnavailable) {
		t.Fatalf("post-close admission = %v, want ErrUnavailable", res.err)
	}
}

// TestGateConcurrency drives admission, token waits, deadline expiry and
// Close from many goroutines at once.  Every request must end in exactly
// one documented outcome — served with the reference prediction, 429, a
// typed cancellation, or 503 once Close has begun — and the gate's books
// must balance afterwards: no waiting place or token leaks, and every
// admitted request was either executed or counted expired.
func TestGateConcurrency(t *testing.T) {
	_, train := testModel(t)
	s, g := gateServer(t, Config{QueueDepth: 2, WorkersPerModel: 2})
	want := make([]int, len(train.Instances))
	for i := range want {
		res := <-goClassify(context.Background(), s, g, train, i)
		if res.err != nil {
			t.Fatalf("reference %d: %v", i, res.err)
		}
		want[i] = res.preds[0]
	}
	met := s.metrics()
	count := func(name string) int64 { return met.Counter(name).Value() }
	accepted0, rejected0 := count("serve.admit.accepted"), count("serve.admit.rejected")
	groups0, jobs0, expired0 := count("serve.batch.groups"), count("serve.batch.jobs"), count("serve.queue.expired")

	const clients, perClient = 12, 25
	var closing atomic.Bool
	var ok, overload, canceled, unavailable, answered atomic.Int64
	start, firstOverload, halfway := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for k := 0; k < perClient; k++ {
				i := (c*perClient + k) % len(train.Instances)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if k%3 == 0 { // short deadlines expire waiting or mid-evaluation
					ctx, cancel = context.WithTimeout(ctx, time.Duration(k*10)*time.Microsecond)
				}
				res := <-goClassify(ctx, s, g, train, i)
				cancel()
				switch err := res.err; {
				case err == nil:
					if res.preds[0] != want[i] || res.version != 1 {
						t.Errorf("instance %d: got %v (version %d), want %d", i, res.preds, res.version, want[i])
					}
					ok.Add(1)
				case faulty.CheckTyped(err) != "":
					t.Error(faulty.CheckTyped(err))
				case errors.Is(err, errs.ErrOverload):
					if overload.Add(1) == 1 {
						close(firstOverload)
					}
					time.Sleep(100 * time.Microsecond) // back off, as a client would
				case errors.Is(err, errs.ErrCanceled):
					canceled.Add(1)
				case errors.Is(err, errs.ErrUnavailable) && closing.Load():
					unavailable.Add(1)
				default:
					t.Errorf("instance %d: unexpected error %v", i, err)
				}
				if answered.Add(1) == clients*perClient/2 {
					close(halfway)
				}
			}
		}(c)
	}
	// The storm starts with every token held, so requests pile up to
	// QueueDepth and overflow before the first evaluation runs.
	held := holdTokens(g)
	close(start)
	<-firstOverload
	releaseTokens(g, held)
	<-halfway
	closing.Store(true)
	closeErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			closeErrs <- s.Close(ctx)
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-closeErrs; err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	g.mu.Lock()
	waiting := g.waiting
	g.mu.Unlock()
	if waiting != 0 || len(g.tokens) != 2 {
		t.Fatalf("after close: %d waiting, %d of 2 tokens home", waiting, len(g.tokens))
	}
	if got := ok.Load() + overload.Load() + canceled.Load() + unavailable.Load(); got != clients*perClient {
		t.Fatalf("%d outcomes for %d requests", got, clients*perClient)
	}
	accepted := count("serve.admit.accepted") - accepted0
	groups := count("serve.batch.groups") - groups0
	expired := count("serve.queue.expired") - expired0
	if got := count("serve.admit.rejected") - rejected0; got != overload.Load() {
		t.Fatalf("rejected = %d, want %d overloads", got, overload.Load())
	}
	if accepted != ok.Load()+canceled.Load() {
		t.Fatalf("accepted = %d, want %d served + %d canceled", accepted, ok.Load(), canceled.Load())
	}
	if accepted != groups+expired {
		t.Fatalf("accepted = %d, want %d executed + %d expired", accepted, groups, expired)
	}
	if jobs := count("serve.batch.jobs") - jobs0; jobs != groups {
		t.Fatalf("batch jobs = %d, groups = %d: one per executed request", jobs, groups)
	}
	t.Logf("served %d, 429 %d, canceled %d (expired waiting %d), 503 %d",
		ok.Load(), overload.Load(), canceled.Load(), expired, unavailable.Load())
}

// TestCloseHardStop pins Close's hard stop: with an expired context, Close
// cancels both a request evaluating with the model's only token and one
// waiting for it.  Both answer typed cancellations over HTTP, and Close
// returns the context's error.
func TestCloseHardStop(t *testing.T) {
	m, _ := testModel(t)
	// A transform-only model slow enough to still be evaluating when Close
	// runs: 400 shapelets of distinct lengths (one cancellation check each)
	// against a 20,000-point series.
	rng := rand.New(rand.NewSource(5))
	slow := *m
	slow.Shapelets = make([]classify.Shapelet, 400)
	for i := range slow.Shapelets {
		v := make(ts.Series, 100+i)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		slow.Shapelets[i] = classify.Shapelet{Values: v}
	}
	series := make([]float64, 20000)
	for j := range series {
		series[j] = rng.NormFloat64()
	}
	body, err := json.Marshal(evalRequest{Instances: []ts.Series{series}})
	if err != nil {
		t.Fatal(err)
	}

	s := NewServer(context.Background(), Config{Obs: obs.New("hard-stop")})
	if _, err := s.Register(context.Background(), "slow", "test", &slow); err != nil {
		t.Fatalf("register: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	sl, _ := s.reg.resolve("slow")
	g := sl.gate

	type answer struct {
		status int
		body   []byte
	}
	post := func() <-chan answer {
		done := make(chan answer, 1)
		go func() {
			resp, err := http.Post(hs.URL+"/v1/transform?model=slow", "application/json", bytes.NewReader(body))
			if err != nil {
				done <- answer{body: []byte(err.Error())}
				return
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			done <- answer{status: resp.StatusCode, body: out}
		}()
		return done
	}
	evaluating := post()
	waitFor(t, "the first request to take the token", func() bool { return len(g.tokens) == 0 })
	waiting := post()
	waitWaiting(t, g, 1)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with an expired context = %v, want context.DeadlineExceeded", err)
	}
	for name, ch := range map[string]<-chan answer{"evaluating": evaluating, "waiting": waiting} {
		a := <-ch
		var er errorResponse
		if err := json.Unmarshal(a.body, &er); err != nil {
			t.Fatalf("%s request: status %d, body %s is not a JSON error", name, a.status, a.body)
		}
		if a.status != StatusClientClosedRequest || er.Class != "canceled" {
			t.Fatalf("%s request: status %d class %q, want %d canceled (body %s)",
				name, a.status, er.Class, StatusClientClosedRequest, a.body)
		}
	}
}

// TestCloseHardStopStalledBody pins the hard stop against a client that
// sent its headers and part of its body, then stalled: the handler's body
// read blocks on the connection, where no context reaches it.  Close with
// an expired context must end that read, so it returns the context's error
// within a fixed time instead of waiting for the client, and the request
// still answers its typed 499.
func TestCloseHardStopStalledBody(t *testing.T) {
	for _, tc := range []struct{ name, route, part string }{
		{"classify", "/v1/classify?model=planted", `{"instances":[[1.0,2.0,`},
		{"stream", "/v1/stream?model=planted", `{"points":[1.0,2.0,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := testModel(t)
			s := NewServer(context.Background(), Config{Obs: obs.New("stalled-body")})
			if _, err := s.Register(context.Background(), "planted", "test", m); err != nil {
				t.Fatalf("register: %v", err)
			}
			// A route reads the body only once the request has entered, so
			// its first read means Close must wait for it.
			reading := make(chan struct{}, 1)
			h := s.Handler()
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.Body = firstRead{ReadCloser: r.Body, read: reading}
				h.ServeHTTP(w, r)
			}))
			defer hs.Close()
			conn, err := net.Dial("tcp", hs.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: ipsd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				tc.route, len(tc.part)+100, tc.part); err != nil {
				t.Fatal(err)
			}
			select {
			case <-reading:
			case <-time.After(5 * time.Second):
				t.Fatal("the request never read its body")
			}

			ctx, cancel := context.WithDeadline(context.Background(), time.Now())
			defer cancel()
			closed := make(chan error, 1)
			go func() { closed <- s.Close(ctx) }()
			select {
			case err := <-closed:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Close with an expired context = %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close with an expired context still waits for the stalled client after 5 s")
			}

			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("read the answer: %v", err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var er errorResponse
			if resp.StatusCode != StatusClientClosedRequest || json.Unmarshal(out, &er) != nil || er.Class != "canceled" {
				t.Fatalf("stalled request: status %d body %s, want %d canceled", resp.StatusCode, out, StatusClientClosedRequest)
			}
		})
	}
}

// firstRead reports a body's first Read on read.
type firstRead struct {
	io.ReadCloser
	read chan<- struct{}
}

func (b firstRead) Read(p []byte) (int, error) {
	select {
	case b.read <- struct{}{}:
	default:
	}
	return b.ReadCloser.Read(p)
}
