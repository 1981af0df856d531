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
// under the race detector: one Cache and one Batch shared by many
// goroutines, each evaluating every series.  The prepared forms (including
// the mutex-guarded per-Prepared FFT transform cache) are shared, and every
// goroutine must see byte-identical results.  Query lengths straddle the
// crossover so both kernels run concurrently.
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
	}
	want := make([][]float64, len(seriesSet))
	for si, s := range seriesSet {
		want[si] = make([]float64, len(queries))
		for qi, q := range queries {
			want[si][qi] = ts.Dist(q, s)
		}
	}

	cache := NewCache()
	batch := NewBatch(queries)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Counts
			out := make([]float64, len(queries))
			for si, s := range seriesSet {
				p := cache.Prepared(s, &c)
				if err := batch.EvalScratchCtx(context.Background(), p, out, &c, nil); err != nil {
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
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if cache.Size() != len(seriesSet) {
		t.Fatalf("cache size = %d, want %d (one entry per series, built once)", cache.Size(), len(seriesSet))
	}
}
