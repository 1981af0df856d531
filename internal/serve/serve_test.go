package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/faulty"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
)

// The suite fits one small model on planted synthetic data and shares it
// across every test: the model is immutable, so concurrent servers can
// register the same instance.
var (
	fitOnce  sync.Once
	fitModel *core.Model
	fitTrain *ts.Dataset
	fitErr   error
)

func testModel(t *testing.T) (*core.Model, *ts.Dataset) {
	t.Helper()
	fitOnce.Do(func() {
		fitTrain = faulty.Planted(8, 64, 2, 901)
		opt := core.Options{
			IP:   ip.Config{QN: 5, QS: 3, LengthRatios: []float64{0.2, 0.3}, Seed: 92},
			DABF: dabf.Config{Seed: 92},
			K:    3,
		}
		fitModel, fitErr = core.Fit(context.Background(), fitTrain, opt)
	})
	if fitErr != nil {
		t.Fatalf("fitting the suite model: %v", fitErr)
	}
	return fitModel, fitTrain
}

// testServer registers the shared model as "planted" on a fresh Server and
// exposes it through an httptest server.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	m, _ := testModel(t)
	if cfg.Obs == nil {
		cfg.Obs = obs.New("serve-test")
	}
	s := NewServer(context.Background(), cfg)
	if _, err := s.Register(context.Background(), "planted", "test", m); err != nil {
		t.Fatalf("register: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, hs
}

// evalBody builds the JSON eval body for the first n training instances.
func evalBody(t *testing.T, d *ts.Dataset, n int) ([]byte, *ts.Dataset) {
	t.Helper()
	req := evalRequest{}
	sub := &ts.Dataset{Name: "req"}
	for i := 0; i < n; i++ {
		req.Instances = append(req.Instances, d.Instances[i].Values)
		sub.Instances = append(sub.Instances, d.Instances[i])
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf, sub
}

// refTransform is the offline shapelet transform a served response must
// match bit for bit.
func refTransform(t *testing.T, d *ts.Dataset, shapelets []classify.Shapelet) [][]float64 {
	t.Helper()
	X, err := classify.TransformWith(context.Background(), d, shapelets, classify.TransformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return X
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

func TestClassifyRoundTrip(t *testing.T) {
	m, train := testModel(t)
	_, hs := testServer(t, Config{})
	body, sub := evalBody(t, train, 6)

	resp, out := postJSON(t, hs.URL+"/v1/classify?model=planted", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	want, err := m.Predict(context.Background(), sub)
	if err != nil {
		t.Fatalf("local predict: %v", err)
	}
	// Golden body: the response must be byte-identical to the canonical
	// encoding of the expected payload, not merely equivalent JSON.
	golden, _ := json.Marshal(classifyResponse{Model: "planted", Version: 1, Predictions: want})
	golden = append(golden, '\n')
	if !bytes.Equal(out, golden) {
		t.Fatalf("classify body:\n got %s\nwant %s", out, golden)
	}
}

func TestTransformRoundTrip(t *testing.T) {
	m, train := testModel(t)
	_, hs := testServer(t, Config{})
	body, sub := evalBody(t, train, 4)

	resp, out := postJSON(t, hs.URL+"/v1/transform?model=planted", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, out)
	}
	want := refTransform(t, sub, m.Shapelets)
	golden, _ := json.Marshal(transformResponse{Model: "planted", Version: 1, Features: want})
	golden = append(golden, '\n')
	if !bytes.Equal(out, golden) {
		t.Fatalf("transform body:\n got %s\nwant %s", out, golden)
	}
}

func TestTSVBodyMatchesJSON(t *testing.T) {
	_, train := testModel(t)
	_, hs := testServer(t, Config{})
	jsonBody, _ := evalBody(t, train, 5)

	var tsv bytes.Buffer
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&tsv, "%d", train.Instances[i].Label)
		for _, v := range train.Instances[i].Values {
			fmt.Fprintf(&tsv, "\t%g", v)
		}
		fmt.Fprintln(&tsv)
	}
	resp, err := http.Post(hs.URL+"/v1/classify?model=planted", "text/tab-separated-values", &tsv)
	if err != nil {
		t.Fatalf("POST tsv: %v", err)
	}
	tsvOut, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tsv status = %d, body %s", resp.StatusCode, tsvOut)
	}
	_, jsonOut := postJSON(t, hs.URL+"/v1/classify?model=planted", jsonBody)
	if !bytes.Equal(tsvOut, jsonOut) {
		t.Fatalf("TSV and JSON bodies disagree:\n tsv  %s\n json %s", tsvOut, jsonOut)
	}
}

// TestWorkerCountByteIdentical is the serving determinism contract: the same
// requests against pools of 1, 4, and 8 workers produce byte-identical
// responses.
func TestWorkerCountByteIdentical(t *testing.T) {
	_, train := testModel(t)
	body, _ := evalBody(t, train, 8)
	var baseline []byte
	for _, workers := range []int{1, 4, 8} {
		_, hs := testServer(t, Config{WorkersPerModel: workers})
		for i := 0; i < 3; i++ {
			resp, out := postJSON(t, hs.URL+"/v1/classify?model=planted", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("workers=%d status = %d, body %s", workers, resp.StatusCode, out)
			}
			if baseline == nil {
				baseline = out
			} else if !bytes.Equal(out, baseline) {
				t.Fatalf("workers=%d response diverged:\n got %s\nwant %s", workers, out, baseline)
			}
		}
	}
}

// TestGoldenErrorResponse pins the exact JSON error contract bytes.
func TestGoldenErrorResponse(t *testing.T) {
	_, hs := testServer(t, Config{})
	resp, out := postJSON(t, hs.URL+"/v1/classify", []byte(`{"instances":[[1,2]]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	golden := `{"error":"ips: serve: serve.classify: bad input: missing required ?model= parameter","class":"bad-input","stage":"serve","op":"serve.classify","status":400}` + "\n"
	if string(out) != golden {
		t.Fatalf("error body:\n got %s\nwant %s", out, golden)
	}
}

func TestUnknownModel404(t *testing.T) {
	_, hs := testServer(t, Config{})
	resp, out := postJSON(t, hs.URL+"/v1/classify?model=nope", []byte(`{"instances":[[1,2]]}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, body %s", resp.StatusCode, out)
	}
	var er errorResponse
	if err := json.Unmarshal(out, &er); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, out)
	}
	if er.Class != "bad-input" || er.Status != 404 {
		t.Fatalf("error body = %+v", er)
	}
}

func TestAdminLoadAliasRetire(t *testing.T) {
	m, train := testModel(t)
	s, hs := testServer(t, Config{})

	// Save the model and load it under a second name through the admin API.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	admin := func(body string) (*http.Response, []byte) {
		return postJSON(t, hs.URL+"/admin/models", []byte(body))
	}
	resp, out := admin(`{"action":"load","name":"second","path":"` + path + `"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status = %d, body %s", resp.StatusCode, out)
	}
	var info ModelInfo
	if err := json.Unmarshal(out, &info); err != nil || info.Version != 1 || info.Name != "second" {
		t.Fatalf("load info = %s (err %v)", out, err)
	}

	// Alias and serve through the alias.
	if resp, out = admin(`{"action":"alias","name":"prod","target":"second"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("alias status = %d, body %s", resp.StatusCode, out)
	}
	body, _ := evalBody(t, train, 2)
	if resp, out = postJSON(t, hs.URL+"/v1/classify?model=prod", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify via alias = %d, body %s", resp.StatusCode, out)
	}

	// Listing is sorted by name.
	lresp, err := http.Get(hs.URL + "/admin/models")
	if err != nil {
		t.Fatalf("GET models: %v", err)
	}
	lout, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	var listing struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.Unmarshal(lout, &listing); err != nil {
		t.Fatalf("listing: %v (%s)", err, lout)
	}
	var names []string
	for _, mi := range listing.Models {
		names = append(names, mi.Name)
	}
	if !reflect.DeepEqual(names, []string{"planted", "prod", "second"}) {
		t.Fatalf("listing names = %v", names)
	}

	// Retire: requests get a typed 503, a reload revives with version 2.
	if resp, out = admin(`{"action":"retire","name":"second"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("retire status = %d, body %s", resp.StatusCode, out)
	}
	if resp, out = postJSON(t, hs.URL+"/v1/classify?model=prod", body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retired classify = %d, body %s", resp.StatusCode, out)
	}
	if _, err := s.Register(context.Background(), "second", "test", m); err != nil {
		t.Fatalf("revive: %v", err)
	}
	resp, out = postJSON(t, hs.URL+"/v1/classify?model=prod", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revived classify = %d, body %s", resp.StatusCode, out)
	}
	var cr classifyResponse
	if err := json.Unmarshal(out, &cr); err != nil || cr.Version != 2 {
		t.Fatalf("revived version = %s (err %v)", out, err)
	}

	// Admin misuse is typed 400/404.
	if resp, _ = admin(`{"action":"explode"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action = %d", resp.StatusCode)
	}
	if resp, _ = admin(`{"action":"retire","name":"ghost"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retire ghost = %d", resp.StatusCode)
	}
	if resp, _ = admin(`{"action":"load","name":"prod","path":"` + path + `"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("load onto alias = %d", resp.StatusCode)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	_, train := testModel(t)
	s, hs := testServer(t, Config{})
	get := func() int {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET healthz: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	s.StartDrain()
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d", code)
	}
	body, _ := evalBody(t, train, 2)
	resp, out := postJSON(t, hs.URL+"/v1/classify?model=planted", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining classify = %d, body %s", resp.StatusCode, out)
	}
	var er errorResponse
	if err := json.Unmarshal(out, &er); err != nil || er.Class != "unavailable" {
		t.Fatalf("draining body = %s (err %v)", out, err)
	}
}

func TestBadTimeoutParam(t *testing.T) {
	_, hs := testServer(t, Config{})
	for _, tm := range []string{"abc", "-5", "0"} {
		resp, out := postJSON(t, hs.URL+"/v1/classify?model=planted&timeout_ms="+tm, []byte(`{"instances":[[1,2]]}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%s status = %d, body %s", tm, resp.StatusCode, out)
		}
	}
}

func TestMethodAndRouteErrors(t *testing.T) {
	_, hs := testServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/classify?model=planted")
	if err != nil {
		t.Fatalf("GET classify: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify = %d", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/v1/unknown", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST unknown: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST unknown route = %d", resp.StatusCode)
	}
}

func TestBodyTooLarge413(t *testing.T) {
	_, hs := testServer(t, Config{MaxBodyBytes: 256})
	big := `{"instances":[[` + strings.Repeat("1.0,", 200) + `1.0]]}`
	resp, out := postJSON(t, hs.URL+"/v1/classify?model=planted", []byte(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %s", resp.StatusCode, out)
	}
}
