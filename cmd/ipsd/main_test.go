package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/faulty"
	"ips/internal/ip"
	"ips/internal/serve"
)

// TestSignalOnlyStartsDrain pins the daemon's shutdown contract: the signal
// cancels the context run hands to newDaemon, and a classify request that
// arrives after the signal but before StartDrain must still be served (200),
// not cancelled (499).
func TestSignalOnlyStartsDrain(t *testing.T) {
	train := faulty.Planted(8, 64, 2, 901)
	m, err := core.Fit(context.Background(), train, core.Options{
		IP:   ip.Config{QN: 5, QS: 3, LengthRatios: []float64{0.2, 0.3}, Seed: 92},
		DABF: dabf.Config{Seed: 92},
		K:    3,
	})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}

	sigCtx, signal := context.WithCancel(context.Background())
	s, hs := newDaemon(sigCtx, "127.0.0.1:0", serve.Config{})
	if _, err := s.Register(sigCtx, "m", "test", m); err != nil {
		t.Fatalf("register: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	signal() // SIGTERM: run wakes up, and has not called StartDrain yet
	body, err := json.Marshal(map[string][][]float64{"instances": {train.Instances[0].Values}})
	if err != nil {
		t.Fatal(err)
	}
	// Several requests: a cancelled serve.Server base reaches a request
	// through an asynchronous context.AfterFunc, so one request can slip by.
	for i := 0; i < 10; i++ {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/classify?model=m", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("classify %d: %v", i, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d after the signal: status %d, body %s", i, resp.StatusCode, out)
		}
	}

	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}
