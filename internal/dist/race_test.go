package dist

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ips/internal/fft"
	"ips/internal/ts"
)

// TestSharedCacheConcurrent exercises the engine's concurrency contract
// under the race detector: one set of Prepared series and two Batches shared
// by many goroutines, each evaluating every series with both batches.  The
// auto batch resolves every shape here to the rolling kernel and the forced
// batch runs the fft kernel, so the mutex-guarded per-Prepared transform
// cache is hit from every goroutine at once.  Every goroutine must see
// byte-identical results, and each padded transform must be built exactly
// once however many goroutines ask for it.
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
	prepared := make([]*Prepared, len(seriesSet))
	wantMisses := int64(0)
	for si, s := range seriesSet {
		want[si] = make([]float64, len(queries))
		pads := map[int]bool{}
		for qi, q := range queries {
			want[si][qi] = ts.Dist(q, s)
			pads[fft.NextPow2(len(s)+len(q)-1)] = true
		}
		prepared[si] = Prepare(s)
		wantMisses += int64(len(pads))
	}

	auto := NewBatch(queries)
	forced := NewBatch(queries)
	forced.SetKernel(KernelFFT)
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
			batches := []*Batch{auto, forced}
			if w%2 == 1 {
				batches[0], batches[1] = forced, auto
			}
			out := make([]float64, len(queries))
			for si, p := range prepared {
				for _, b := range batches {
					if err := b.EvalScratchCtx(context.Background(), p, out, &c, nil); err != nil {
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
	if total.Rolling == 0 || total.FFT == 0 {
		t.Fatalf("counts %+v: want both the rolling and the fft kernel to run", total)
	}
	if total.FFTCacheMisses != wantMisses {
		t.Fatalf("fft cache misses = %d, want %d (one transform per series and pad size, built once)",
			total.FFTCacheMisses, wantMisses)
	}
}
