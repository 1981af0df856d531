package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"ips/internal/faulty"
)

// TestHTTPFaultMatrix drives every faulty.HTTPFault against the classify
// route: each misbehaving client must get exactly the documented typed
// status with a JSON error body naming the errs class — never a panic,
// never a 200, never a hung connection — and the server must serve a clean
// request immediately afterwards.
func TestHTTPFaultMatrix(t *testing.T) {
	_, train := testModel(t)
	_, hs := testServer(t, Config{})
	cleanBody, _ := evalBody(t, train, 1)
	cleanURL := hs.URL + "/v1/classify?model=planted"
	runFaultMatrix(t, cleanURL, faulty.HTTPFaults(), nil, func(t *testing.T) {
		cresp, cout := postJSON(t, cleanURL, cleanBody)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("clean request after fault: status %d, body %s", cresp.StatusCode, cout)
		}
	})
}

// runFaultMatrix sends each fault to url.  A fault that cancels its own
// request must fail on the client's side; any other must get its documented
// status: for 200, a body ok accepts, otherwise a JSON error body naming
// the errs class.  After every fault, clean must find the server serving.
func runFaultMatrix(t *testing.T, url string, faults []faulty.HTTPFault, ok func(t *testing.T, body []byte), clean func(t *testing.T)) {
	t.Helper()
	for _, f := range faults {
		t.Run(f.Name, func(t *testing.T) {
			url := url
			if f.Timeout > 0 {
				url += "&timeout_ms=" + strconv.Itoa(int(f.Timeout/time.Millisecond))
			}
			ctx := context.Background()
			if f.CancelAfter > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, f.CancelAfter)
				defer cancel()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, f.Body())
			if err != nil {
				t.Fatalf("build request: %v", err)
			}
			if f.ContentType != "" {
				req.Header.Set("Content-Type", f.ContentType)
			}
			resp, err := http.DefaultClient.Do(req)

			if f.WantStatus == 0 {
				// Client-side failure expected: the transport must report the
				// cancellation, and the server must shrug it off.
				if err == nil {
					resp.Body.Close()
					t.Fatalf("expected a client-side error, got HTTP %d", resp.StatusCode)
				}
			} else {
				if err != nil {
					t.Fatalf("round trip: %v", err)
				}
				out, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					t.Fatalf("read body: %v", rerr)
				}
				if resp.StatusCode != f.WantStatus {
					t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, f.WantStatus, out)
				}
				if f.WantStatus == http.StatusOK {
					ok(t, out)
				} else {
					var er errorResponse
					if err := json.Unmarshal(out, &er); err != nil {
						t.Fatalf("error body is not JSON: %v (%s)", err, out)
					}
					if er.Class != f.WantClass {
						t.Fatalf("error class = %q, want %q (body %s)", er.Class, f.WantClass, out)
					}
					if er.Status != f.WantStatus {
						t.Fatalf("body status = %d, want %d", er.Status, f.WantStatus)
					}
				}
			}

			// The server must stay healthy after every fault.
			clean(t)
		})
	}
}

// TestHTTPFaultMatrixTransform spot-checks that the transform route shares
// the decode contract.
func TestHTTPFaultMatrixTransform(t *testing.T) {
	_, hs := testServer(t, Config{})
	for _, f := range faulty.HTTPFaults() {
		if f.Name != "truncated-json" && f.Name != "wrong-content-type" {
			continue
		}
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/transform?model=planted", f.Body())
		if err != nil {
			t.Fatalf("build request: %v", err)
		}
		req.Header.Set("Content-Type", f.ContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != f.WantStatus {
			t.Fatalf("%s: status = %d, want %d (body %s)", f.Name, resp.StatusCode, f.WantStatus, out)
		}
	}
}

// TestHTTPFaultMatrixStream drives stream-shaped faults against an append
// to an open session: each must get its documented typed status with a JSON
// error body, an empty chunk must answer 200 without adding a point, and
// the session must take a clean append after every case with its point
// count untouched by the faults.
func TestHTTPFaultMatrixStream(t *testing.T) {
	_, hs := testServer(t, Config{MaxBodyBytes: 256})
	resp, sr, raw := doStream(t, http.MethodPost, hs.URL+"/v1/stream?model=planted", streamChunk(t, []float64{1, 2, 3}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d body %s", resp.StatusCode, raw)
	}
	sessionURL := hs.URL + "/v1/stream?session=" + sr.Session
	n := sr.N

	const jsonCT, tsvCT = "application/json", "text/tab-separated-values"
	str := func(s string) func() io.Reader {
		return func() io.Reader { return strings.NewReader(s) }
	}
	slow := func() io.Reader { return faulty.SlowBody([]byte(`{"points":[1.0,2.0,3.0,4.0]}`), 40*time.Millisecond) }
	stalled := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"points":[1.0,2.0,3.0,4.0]}`), faulty.SlowBody([]byte("\n"), 300*time.Millisecond))
	}
	faults := []faulty.HTTPFault{
		{Name: "truncated-json", ContentType: jsonCT, Body: str(`{"points":[1.0,2.0,`), WantStatus: 400, WantClass: "bad-input"},
		{Name: "trailing-garbage", ContentType: jsonCT, Body: str(`{"points":[1.0,2.0]} & more`), WantStatus: 400, WantClass: "bad-input"},
		{Name: "unknown-field", ContentType: jsonCT, Body: str(`{"pointz":[1.0,2.0]}`), WantStatus: 400, WantClass: "bad-input"},
		{Name: "wrong-content-type", ContentType: "text/plain", Body: str(`{"points":[1.0,2.0]}`), WantStatus: 400, WantClass: "bad-input"},
		{Name: "truncated-tsv", ContentType: tsvCT, Body: str("0\t1.5\t2e"), WantStatus: 400, WantClass: "bad-input"},
		{Name: "two-row-tsv", ContentType: tsvCT, Body: str("0\t1.5\t2.5\n0\t1.7\t2.7\n"), WantStatus: 400, WantClass: "bad-input"},
		{Name: "nonfinite-tsv", ContentType: tsvCT, Body: str("0\t1.5\tNaN\n"), WantStatus: 400, WantClass: "bad-input"},
		{Name: "body-too-large", ContentType: jsonCT, Body: str(`{"points":[` + strings.Repeat("1.0,", 100) + `1.0]}`), WantStatus: 413, WantClass: "bad-input"},
		{Name: "slow-client", ContentType: jsonCT, Body: slow, Timeout: 150 * time.Millisecond, WantStatus: 504, WantClass: "canceled"},
		{Name: "stalled-tail", ContentType: jsonCT, Body: stalled, Timeout: 100 * time.Millisecond, WantStatus: 504, WantClass: "canceled"},
		{Name: "empty-json", ContentType: jsonCT, Body: str(""), WantStatus: 200},
		{Name: "empty-tsv", ContentType: tsvCT, Body: str(""), WantStatus: 200},
		{Name: "empty-no-content-type", Body: str(""), WantStatus: 200},
		{Name: "no-points", ContentType: jsonCT, Body: str(`{"points":[]}`), WantStatus: 200},
	}
	empty := func(t *testing.T, body []byte) {
		var got streamResponse
		if err := json.Unmarshal(body, &got); err != nil || got.N != n {
			t.Fatalf("empty chunk: body %s, want n %d", body, n)
		}
	}
	runFaultMatrix(t, sessionURL, faults, empty, func(t *testing.T) {
		resp, got, raw := doStream(t, http.MethodPost, sessionURL, streamChunk(t, []float64{4}))
		if resp.StatusCode != http.StatusOK || got.N != n+1 {
			t.Fatalf("clean append after fault: status %d body %s, want n %d", resp.StatusCode, raw, n+1)
		}
		n = got.N
	})
}
