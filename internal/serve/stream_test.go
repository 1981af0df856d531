package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/faulty"
	"ips/internal/obs"
	"ips/internal/stream"
	"ips/internal/ts"
)

// streamChunk marshals one {"points": [...]} body.
func streamChunk(t *testing.T, points []float64) []byte {
	t.Helper()
	buf, err := json.Marshal(streamRequest{Points: points})
	if err != nil {
		t.Fatalf("marshal chunk: %v", err)
	}
	return buf
}

// doStream issues one streaming request and decodes the success body.
func doStream(t *testing.T, method, url string, body []byte) (*http.Response, streamResponse, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var sr streamResponse
	if resp.StatusCode == http.StatusOK && method != http.MethodDelete {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
	}
	return resp, sr, raw
}

// shortestShapelet returns the server's default stream window for the suite
// model: the shortest shapelet length.
func shortestShapelet(t *testing.T) int {
	t.Helper()
	m, _ := testModel(t)
	w := 0
	for _, sh := range m.Shapelets {
		if w == 0 || len(sh.Values) < w {
			w = len(sh.Values)
		}
	}
	if w == 0 {
		t.Fatal("suite model has no shapelets")
	}
	return w
}

// TestStreamLifecycle drives the full session arc — create with the first
// chunk, append the rest point-by-point, close — and pins every response to
// a directly-driven stream.Stream built with the same configuration: the
// HTTP layer must add routing and admission, never change results.
func TestStreamLifecycle(t *testing.T) {
	m, train := testModel(t)
	_, hs := testServer(t, Config{})
	series := train.Instances[0].Values
	window := shortestShapelet(t)

	direct, err := stream.New(stream.Config{
		Window:    window,
		Shapelets: m.Shapelets,
		Scaler:    m.Scaler,
		SVM:       m.SVM,
		MaxPoints: 1 << 20,
	})
	if err != nil {
		t.Fatalf("direct stream: %v", err)
	}

	first := []float64(series[:4])
	resp, sr, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", streamChunk(t, first))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d body %s", resp.StatusCode, raw)
	}
	if sr.Session == "" || sr.Model != "planted" || sr.Version != 1 {
		t.Fatalf("create response: %+v", sr)
	}
	wantUp, err := direct.Append(context.Background(), first)
	if err != nil {
		t.Fatalf("direct append: %v", err)
	}
	checkStreamResp(t, sr, wantUp, 0)

	for k, v := range series[4:] {
		resp, sr, raw = doStream(t, http.MethodPost,
			hs.URL+"/v1/stream?session="+sr.Session, streamChunk(t, []float64{v}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: status %d body %s", k, resp.StatusCode, raw)
		}
		wantUp, err = direct.Append(context.Background(), []float64{v})
		if err != nil {
			t.Fatalf("direct append %d: %v", k, err)
		}
		checkStreamResp(t, sr, wantUp, k+1)
	}
	if sr.Prediction == nil {
		t.Fatal("full series streamed, no prediction")
	}

	resp, _, raw = doStream(t, http.MethodDelete, hs.URL+"/v1/stream?session="+sr.Session, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d body %s", resp.StatusCode, raw)
	}
	var cr streamCloseResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("close body %s: %v", raw, err)
	}
	if !cr.Closed || cr.N != len(series) {
		t.Fatalf("close response: %+v", cr)
	}
	// The session is gone: another append is a 404.
	resp, _, _ = doStream(t, http.MethodPost, hs.URL+"/v1/stream?session="+cr.Session, streamChunk(t, []float64{0}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append after close: status %d, want 404", resp.StatusCode)
	}
}

// checkStreamResp pins a wire response to a direct stream.Update bitwise.
func checkStreamResp(t *testing.T, sr streamResponse, up stream.Update, step int) {
	t.Helper()
	if sr.N != up.N || sr.Windows != up.Windows {
		t.Fatalf("step %d: n/windows = %d/%d, want %d/%d", step, sr.N, sr.Windows, up.N, up.Windows)
	}
	if up.HasPred != (sr.Prediction != nil) {
		t.Fatalf("step %d: prediction presence = %v, want %v", step, sr.Prediction != nil, up.HasPred)
	}
	if up.HasPred && *sr.Prediction != up.Pred {
		t.Fatalf("step %d: prediction = %d, want %d", step, *sr.Prediction, up.Pred)
	}
	if sr.Drift != up.Drift || sr.Motif != up.Motif || sr.Discord != up.Discord {
		t.Fatalf("step %d: drift/motif/discord = %v/%d/%d, want %v/%d/%d",
			step, sr.Drift, sr.Motif, sr.Discord, up.Drift, up.Motif, up.Discord)
	}
	if math.Float64bits(sr.MotifDist) != math.Float64bits(up.MotifDist) ||
		math.Float64bits(sr.DiscordDist) != math.Float64bits(up.DiscordDist) {
		t.Fatalf("step %d: dists = %v/%v, want %v/%v", step, sr.MotifDist, sr.DiscordDist, up.MotifDist, up.DiscordDist)
	}
}

// TestStreamAdmission pins the typed refusal taxonomy of the streaming
// route: session caps 429, point caps 429, unknown sessions 404, bad
// windows and bodies 400.
func TestStreamAdmission(t *testing.T) {
	_, hs := testServer(t, Config{MaxStreams: 1, MaxStreamPoints: 16})

	resp, sr, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d body %s", resp.StatusCode, raw)
	}
	// Second session exceeds MaxStreams.
	resp, _, raw = doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: status %d body %s, want 429", resp.StatusCode, raw)
	}
	// An append that would exceed MaxStreamPoints is refused whole.
	resp, _, raw = doStream(t, http.MethodPost,
		hs.URL+"/v1/stream?session="+sr.Session, streamChunk(t, make([]float64, 17)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-points append: status %d body %s, want 429", resp.StatusCode, raw)
	}
	// The refused append changed nothing; an in-cap append still lands.
	resp, got, raw := doStream(t, http.MethodPost,
		hs.URL+"/v1/stream?session="+sr.Session, streamChunk(t, make([]float64, 16)))
	if resp.StatusCode != http.StatusOK || got.N != 16 {
		t.Fatalf("in-cap append: status %d n %d body %s", resp.StatusCode, got.N, raw)
	}
	// Closing the session frees its MaxStreams slot.
	if resp, _, _ = doStream(t, http.MethodDelete, hs.URL+"/v1/stream?session="+sr.Session, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	// A create whose first chunk is refused opens no session: the error
	// names none, so nothing could ever close it and free its slot.
	resp, _, raw = doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", streamChunk(t, make([]float64, 17)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-points create: status %d body %s, want 429", resp.StatusCode, raw)
	}
	if resp, _, raw = doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("create after close and a refused create: status %d body %s", resp.StatusCode, raw)
	}

	for _, tc := range []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"unknown session", http.MethodPost, "/v1/stream?session=s-999", streamChunk(t, []float64{1}), http.StatusNotFound},
		{"delete unknown", http.MethodDelete, "/v1/stream?session=s-999", nil, http.StatusNotFound},
		{"unknown model", http.MethodPost, "/v1/stream?model=ghost", nil, http.StatusNotFound},
		{"missing params", http.MethodPost, "/v1/stream", nil, http.StatusBadRequest},
		{"missing session on delete", http.MethodDelete, "/v1/stream", nil, http.StatusBadRequest},
		{"bad window", http.MethodPost, "/v1/stream?model=planted&window=0", nil, http.StatusBadRequest},
		{"bad timeout", http.MethodPost, "/v1/stream?model=planted&timeout_ms=potato", nil, http.StatusBadRequest},
		{"non-finite point", http.MethodPost, "/v1/stream?model=planted", []byte(`{"points":[1,"NaN"]}`), http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/stream?model=planted", []byte(`{"pts":[1]}`), http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/v1/stream?model=planted", []byte(`{"points":[1]} extra`), http.StatusBadRequest},
	} {
		resp, _, raw := doStream(t, tc.method, hs.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d body %s, want %d", tc.name, resp.StatusCode, raw, tc.want)
		}
	}
}

// TestStreamDrainAndRetire pins the availability taxonomy: a draining
// server refuses creates and appends (503) while DELETE keeps working, and
// a retired model refuses both for its pinned sessions.
func TestStreamDrainAndRetire(t *testing.T) {
	s, hs := testServer(t, Config{})
	resp, sr, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", streamChunk(t, []float64{1, 2, 3}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d body %s", resp.StatusCode, raw)
	}
	open := s.metrics().Gauge("serve.streams.open")
	if n := open.Value(); n != 1 {
		t.Fatalf("serve.streams.open = %v after create, want 1", n)
	}

	if _, err := s.Retire(context.Background(), "planted"); err != nil {
		t.Fatalf("retire: %v", err)
	}
	resp, _, raw = doStream(t, http.MethodPost, hs.URL+"/v1/stream?session="+sr.Session, streamChunk(t, []float64{4}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append to retired: status %d body %s, want 503", resp.StatusCode, raw)
	}
	resp, _, raw = doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on retired: status %d body %s, want 503", resp.StatusCode, raw)
	}

	s.StartDrain()
	resp, _, raw = doStream(t, http.MethodPost, hs.URL+"/v1/stream?session="+sr.Session, streamChunk(t, []float64{4}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append while draining: status %d body %s, want 503", resp.StatusCode, raw)
	}
	// Graceful drain still releases sessions.
	resp, _, raw = doStream(t, http.MethodDelete, hs.URL+"/v1/stream?session="+sr.Session, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close while draining: status %d body %s", resp.StatusCode, raw)
	}
	if n := open.Value(); n != 0 {
		t.Fatalf("serve.streams.open = %v after drain close, want 0", n)
	}
}

// TestStreamTSVChunk pins the second body encoding: a one-row UCR TSV chunk
// (label ignored) lands the same points as JSON.
func TestStreamTSVChunk(t *testing.T) {
	_, hs := testServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/stream?model=planted",
		strings.NewReader("0\t1.5\t2.5\t3.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/tab-separated-values")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("TSV create: status %d body %s", resp.StatusCode, raw)
	}
	var sr streamResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.N != 3 {
		t.Fatalf("TSV chunk ingested %d points, want 3", sr.N)
	}
}

// TestStreamConcurrentSessions hammers the route from many goroutines —
// concurrent creates, interleaved appends to separate sessions, and
// concurrent appends to ONE shared session — and checks the table drains to
// zero with no goroutine leaks.  Run under -race this is the data-race gate
// for the session layer.
func TestStreamConcurrentSessions(t *testing.T) {
	m, _ := testModel(t)
	lc := faulty.NewLeakCheck()
	s := NewServer(context.Background(), Config{Obs: obs.New("stream-race-test")})
	if _, err := s.Register(context.Background(), "planted", "test", m); err != nil {
		t.Fatalf("register: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	const workers = 8

	// Shared session first: appends must serialise, total N must add up.
	resp, shared, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create shared: status %d body %s", resp.StatusCode, raw)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pts := make([]float64, 5)
			for i := range pts {
				pts[i] = float64(g*31+i) / 7
			}
			// Private session per goroutine, plus appends to the shared one.
			resp, own, _ := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", streamChunk(t, pts))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d create: status %d", g, resp.StatusCode)
				return
			}
			for k := 0; k < 4; k++ {
				if resp, _, _ = doStream(t, http.MethodPost, hs.URL+"/v1/stream?session="+own.Session, streamChunk(t, pts)); resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d own append: status %d", g, resp.StatusCode)
				}
				if resp, _, _ = doStream(t, http.MethodPost, hs.URL+"/v1/stream?session="+shared.Session, streamChunk(t, pts)); resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d shared append: status %d", g, resp.StatusCode)
				}
			}
			if resp, _, _ = doStream(t, http.MethodDelete, hs.URL+"/v1/stream?session="+own.Session, nil); resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d close: status %d", g, resp.StatusCode)
			}
		}(g)
	}
	wg.Wait()
	resp, final, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?session="+shared.Session, streamChunk(t, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final shared probe: status %d body %s", resp.StatusCode, raw)
	}
	if want := workers * 4 * 5; final.N != want {
		t.Fatalf("shared session has %d points, want %d (lost appends)", final.N, want)
	}
	if resp, _, _ = doStream(t, http.MethodDelete, hs.URL+"/v1/stream?session="+shared.Session, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("close shared: status %d", resp.StatusCode)
	}
	if n := s.metrics().Gauge("serve.streams.open").Value(); n != 0 {
		t.Fatalf("serve.streams.open = %v, want 0 sessions still open", n)
	}
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	if leaked := lc.Done(3 * time.Second); leaked != "" {
		t.Fatalf("leaked goroutines:\n%s", leaked)
	}
}

// TestStreamSessionPinsVersion pins hot-swap consistency: a session created
// before a model reload keeps answering from the version it was created
// against, while new sessions land on the new version.
func TestStreamSessionPinsVersion(t *testing.T) {
	m, _ := testModel(t)
	s, hs := testServer(t, Config{})

	resp, old, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", streamChunk(t, []float64{1, 2}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d body %s", resp.StatusCode, raw)
	}
	if _, err := s.Register(context.Background(), "planted", "swap", m); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	resp, got, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?session="+old.Session, streamChunk(t, []float64{3}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append after swap: status %d body %s", resp.StatusCode, raw)
	}
	if got.Version != old.Version {
		t.Fatalf("session switched versions mid-life: %d -> %d", old.Version, got.Version)
	}
	resp, fresh, _ := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create after swap: status %d", resp.StatusCode)
	}
	if fresh.Version != old.Version+1 {
		t.Fatalf("new session version = %d, want %d", fresh.Version, old.Version+1)
	}
}

// TestStreamGoldenError pins the wire shape of a typed streaming failure.
func TestStreamGoldenError(t *testing.T) {
	_, hs := testServer(t, Config{})
	resp, _, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?session=s-404", streamChunk(t, []float64{1}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	golden := `{"error":"ips: serve: serve.stream [session s-404]: bad input: model not found: \"session s-404\"","class":"bad-input","stage":"serve","op":"serve.stream","status":404}` + "\n"
	if string(raw) != golden {
		t.Fatalf("error body:\n got %s\nwant %s", raw, golden)
	}
}

// slowAppend is a stream append still evaluating when Close runs: a
// 6,000-point chunk to a session of a registered 400-shapelet model.
type slowAppend struct {
	s      *Server
	model  core.Model
	ses    *session
	points []float64
	answer <-chan httpAnswer
}

// httpAnswer is one HTTP request's outcome.
type httpAnswer struct {
	status int
	body   []byte
}

// startSlowAppend opens the session and sends the append, returning once
// the append holds its session.
func startSlowAppend(t *testing.T, name string) slowAppend {
	t.Helper()
	m, _ := testModel(t)
	const shapelets = 400
	rng := rand.New(rand.NewSource(5))
	slow := *m
	slow.Shapelets = make([]classify.Shapelet, shapelets)
	for i := range slow.Shapelets {
		v := make(ts.Series, 100+i)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		slow.Shapelets[i] = classify.Shapelet{Values: v}
	}
	std := make([]float64, shapelets)
	for i := range std {
		std[i] = 1
	}
	slow.Scaler = &classify.Scaler{Mean: make([]float64, shapelets), Std: std}
	slow.SVM = &classify.SVM{Classes: []int{0, 1},
		W: [][]float64{make([]float64, shapelets), make([]float64, shapelets)}, B: make([]float64, 2)}
	points := make([]float64, 6000)
	for j := range points {
		points[j] = rng.NormFloat64()
	}
	body := streamChunk(t, points)

	s := NewServer(context.Background(), Config{Obs: obs.New(name)})
	if _, err := s.Register(context.Background(), "slow", "test", &slow); err != nil {
		t.Fatalf("register: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	resp, sr, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=slow", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d body %s", resp.StatusCode, raw)
	}
	ses, ok := s.streams.lookup(sr.Session)
	if !ok {
		t.Fatalf("session %q not registered", sr.Session)
	}

	done := make(chan httpAnswer, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/stream?session="+sr.Session, "application/json", bytes.NewReader(body))
		if err != nil {
			done <- httpAnswer{body: []byte(err.Error())}
			return
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- httpAnswer{status: resp.StatusCode, body: out}
	}()
	waitFor(t, "the append to hold its session", func() bool {
		if ses.mu.TryLock() {
			ses.mu.Unlock()
			return false
		}
		return true
	})
	return slowAppend{s: s, model: slow, ses: ses, points: points, answer: done}
}

// TestStreamCloseDrains: a graceful Close waits for a stream append in
// flight, as it waits for eval requests.  The append answers 200 with all
// its points, and when Close returns the session holds them and no append
// holds the session.
func TestStreamCloseDrains(t *testing.T) {
	sa := startSlowAppend(t, "stream-drain")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sa.s.Close(ctx); err != nil {
		t.Fatalf("graceful Close = %v, want nil", err)
	}
	if !sa.ses.mu.TryLock() {
		t.Fatal("Close returned while the append still held its session")
	}
	n := sa.ses.st.N()
	sa.ses.mu.Unlock()
	if n != len(sa.points) {
		t.Fatalf("session holds %d of %d points when Close returns", n, len(sa.points))
	}
	a := <-sa.answer
	var sr streamResponse
	if a.status != http.StatusOK || json.Unmarshal(a.body, &sr) != nil || sr.N != len(sa.points) {
		t.Fatalf("append: status %d body %s, want 200 with n %d", a.status, a.body, len(sa.points))
	}
}

// TestStreamCloseHardStop: Close's hard stop reaches a stream append in
// flight, as TestCloseHardStop shows it reaching the eval routes.  With an
// expired context, Close cancels the append and returns the context's
// error; the append answers 499 canceled instead of finishing.  The session
// stays consistent: its points went in whole or not at all, and an append
// of no points resumes the evaluation to the profile and features of a
// stream fed the same points uninterrupted.
func TestStreamCloseHardStop(t *testing.T) {
	sa := startSlowAppend(t, "stream-hard-stop")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if err := sa.s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with an expired context = %v, want context.DeadlineExceeded", err)
	}
	a := <-sa.answer
	var er errorResponse
	if err := json.Unmarshal(a.body, &er); err != nil {
		t.Fatalf("append: status %d, body %s is not a JSON error", a.status, a.body)
	}
	// The cancel lands in the batch engine's per-query check, unless the
	// append had only just taken the lock and meets its own entry check.
	if a.status != StatusClientClosedRequest || er.Class != "canceled" || er.Op != "dist.batch" && er.Op != "stream.append" {
		t.Fatalf("append: status %d class %q op %q, want %d canceled from dist.batch (body %s)",
			a.status, er.Class, er.Op, StatusClientClosedRequest, a.body)
	}

	ses, points, slow := sa.ses, sa.points, sa.model
	ses.mu.Lock()
	defer ses.mu.Unlock()
	n := ses.st.N()
	if n != 0 && n != len(points) {
		t.Fatalf("cancelled append left %d of %d points", n, len(points))
	}
	if _, err := ses.st.Append(context.Background(), nil); err != nil {
		t.Fatalf("resume append: %v", err)
	}
	ref, err := stream.New(stream.Config{Window: 100, Shapelets: slow.Shapelets, Scaler: slow.Scaler, SVM: slow.SVM})
	if err != nil {
		t.Fatalf("reference stream: %v", err)
	}
	if _, err := ref.Append(context.Background(), points[:n]); err != nil {
		t.Fatalf("reference append: %v", err)
	}
	got, want := ses.st.Features(), ref.Features()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("feature %d after resume = %v, want %v", i, got[i], want[i])
		}
	}
	gp, wp := ses.st.Profile(), ref.Profile()
	for i := range wp.P {
		if math.Float64bits(gp.P[i]) != math.Float64bits(wp.P[i]) || gp.I[i] != wp.I[i] {
			t.Fatalf("profile %d after resume = (%v, %d), want (%v, %d)", i, gp.P[i], gp.I[i], wp.P[i], wp.I[i])
		}
	}
}
