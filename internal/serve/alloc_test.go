package serve

import (
	"context"
	"testing"

	"ips/internal/obs"
	"ips/internal/ts"
)

// TestServeExecAllocs pins the serving layer's arena contract: once a
// token's arena is warm, a classify request through the gate allocates
// nothing — admission and the token wait take no memory, the request series
// is scratch-prepared, the embedding evaluates into the arena's reusable row
// buffers, predictions land in the caller's storage, and every metric handle
// was resolved at gate construction.  Runs with observability ON, so the
// assertion covers the counters and the latency histogram too.
func TestServeExecAllocs(t *testing.T) {
	_, train := testModel(t)
	_, g := gateServer(t, Config{Obs: obs.New("alloc-test")})

	// The request is built once outside the measured loop, exactly as a
	// handler builds it: result storage allocated before the gate.
	instances := []ts.Series{train.Instances[0].Values, train.Instances[1].Values}
	preds := make([]int, len(instances))
	var evalErr error
	run := func() {
		if _, err := g.eval(context.Background(), instances, preds, nil); err != nil {
			evalErr = err
		}
	}
	run() // warm-up: arena buffers grow, metric names intern
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("serve classify eval: %v allocs/run after warm-up, want 0", allocs)
	}
	if evalErr != nil {
		t.Fatalf("eval: %v", evalErr)
	}
}
