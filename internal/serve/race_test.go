package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/faulty"
	"ips/internal/ip"
	"ips/internal/obs"
)

// A second, structurally different model (fewer shapelets per class) for the
// hot-swap tests: a response computed under a torn mix of the two would
// match neither model's reference output.
var (
	swapOnce  sync.Once
	swapModel *core.Model
	swapErr   error
)

func secondModel(t *testing.T) *core.Model {
	t.Helper()
	swapOnce.Do(func() {
		train := faulty.Planted(6, 48, 2, 77)
		opt := core.Options{
			IP:   ip.Config{QN: 4, QS: 2, LengthRatios: []float64{0.25}, Seed: 77},
			DABF: dabf.Config{Seed: 77},
			K:    2,
		}
		swapModel, swapErr = core.Fit(context.Background(), train, opt)
	})
	if swapErr != nil {
		t.Fatalf("fitting the swap model: %v", swapErr)
	}
	return swapModel
}

// TestHotSwapUnderLoad hammers /v1/transform from concurrent clients while
// the registry hot-swaps between two models.  Every response must be exactly
// one model's output — the version says which, and the features must match
// that model's reference transform bit for bit.  Run with -race this is the
// torn-model check: no request may observe half of one model and half of
// another.
func TestHotSwapUnderLoad(t *testing.T) {
	m1, train := testModel(t)
	m2 := secondModel(t)
	s, hs := testServer(t, Config{WorkersPerModel: 2})

	body, sub := evalBody(t, train, 2)
	f1 := refTransform(t, sub, m1.Shapelets)
	f2 := refTransform(t, sub, m2.Shapelets)

	// Swapper: keep alternating m2/m1 registrations while readers hammer.
	// Odd versions are m1 (the initial registration is version 1), even m2.
	stop := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		next := m2
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Register(context.Background(), "planted", "swap", next); err != nil {
				t.Errorf("swap register: %v", err)
				return
			}
			if next == m2 {
				next = m1
			} else {
				next = m2
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Post(hs.URL+"/v1/transform?model=planted", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: status %d, err %v, body %s", g, resp.StatusCode, err, out)
					return
				}
				var tr transformResponse
				if err := json.Unmarshal(out, &tr); err != nil {
					t.Errorf("reader %d: bad body %s", g, out)
					return
				}
				want := f1
				if tr.Version%2 == 0 {
					want = f2
				}
				if !reflect.DeepEqual(tr.Features, want) {
					t.Errorf("reader %d: torn response for version %d:\n got %v\nwant %v",
						g, tr.Version, tr.Features, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-swapDone
}

// TestConcurrentClassifyDuringDrain: requests racing StartDrain either
// complete normally or fail with the typed 503 — never anything else.
func TestConcurrentClassifyDuringDrain(t *testing.T) {
	_, train := testModel(t)
	s, hs := testServer(t, Config{})
	body, _ := evalBody(t, train, 1)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(hs.URL+"/v1/classify?model=planted", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("drain reader %d: %v", g, err)
					return
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("drain reader %d: status %d, body %s", g, resp.StatusCode, out)
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	s.StartDrain()
	wg.Wait()
}

// TestServerLifecycleNoLeak wraps a full serve lifecycle — start, register,
// serve, hot-swap, drain, close — in the goroutine-leak check.
func TestServerLifecycleNoLeak(t *testing.T) {
	m1, train := testModel(t)
	m2 := secondModel(t)

	lc := faulty.NewLeakCheck()
	s := NewServer(context.Background(), Config{Obs: obs.New("leak-test"), WorkersPerModel: 3})
	if _, err := s.Register(context.Background(), "planted", "test", m1); err != nil {
		t.Fatalf("register: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	body, _ := evalBody(t, train, 2)
	for i := 0; i < 5; i++ {
		resp, err := http.Post(hs.URL+"/v1/classify?model=planted", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("classify %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d: status %d", i, resp.StatusCode)
		}
		if _, err := s.Register(context.Background(), "planted", "swap", m2); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	s.StartDrain()
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	if diag := lc.Done(3 * time.Second); diag != "" {
		t.Fatal(diag)
	}
}
