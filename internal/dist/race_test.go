package dist

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ips/internal/ts"
)

// TestSharedCacheConcurrent exercises the engine's concurrency contract
// under the race detector: one set of resident Prepared series (the shared
// per-series prefix sums) and one Batch, shared by eight goroutines.  Each
// goroutine evaluates every series twice, once through the shared Prepared
// and once through its own Scratch.Prepare of the same series, half of them
// in the other order.  The 395-point query leaves the 400-point series six
// windows, so the Go pass runs beside the AVX pass.  Every goroutine must see
// byte-identical results.
func TestSharedCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var seriesSet [][]float64
	for i := 0; i < 6; i++ {
		seriesSet = append(seriesSet, randSeries(rng, 400+40*i, i))
	}
	queries := [][]float64{
		randSeries(rng, 8, 1),
		randSeries(rng, 32, 0),
		randSeries(rng, 128, 2),
		randSeries(rng, 256, 0),
		randSeries(rng, 395, 1),
	}
	want := make([][]float64, len(seriesSet))
	prepared := make([]*Prepared, len(seriesSet))
	for si, s := range seriesSet {
		want[si] = make([]float64, len(queries))
		for qi, q := range queries {
			want[si][qi] = ts.Dist(q, s)
		}
		prepared[si] = Prepare(s)
	}

	batch := NewBatch(queries)
	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total Counts
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c Counts
			defer func() {
				mu.Lock()
				total.Merge(c)
				mu.Unlock()
			}()
			var s Scratch
			out := make([]float64, len(queries))
			for si, p := range prepared {
				routes := []*Prepared{p, nil} // nil: prepare into s
				if w%2 == 1 {
					routes[0], routes[1] = nil, p
				}
				for _, r := range routes {
					if r == nil {
						r = s.Prepare(seriesSet[si])
					}
					if err := batch.EvalScratchCtx(context.Background(), r, out, &c, &s); err != nil {
						errs <- err.Error()
						return
					}
					for qi := range out {
						if math.Float64bits(out[qi]) != math.Float64bits(want[si][qi]) {
							errs <- "concurrent result diverged from sequential reference"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if wantRolling := int64(workers * 2 * len(seriesSet) * len(queries)); total.Rolling != wantRolling || total.Exact != 0 {
		t.Fatalf("counts %+v: want %d rolling evaluations and no exact fallback", total, wantRolling)
	}
}
