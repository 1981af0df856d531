package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ips/internal/faulty"
	"ips/internal/obs"
	"ips/internal/stream"
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
	if n := s.streams.count(); n != 0 {
		t.Fatalf("%d sessions left after drain close", n)
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
	if n := s.streams.count(); n != 0 {
		t.Fatalf("%d sessions still open", n)
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
