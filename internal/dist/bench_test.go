package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// BenchmarkKernels measures each kernel against the naive per-pair ts.Dist
// scan over a (series length, query length) grid.  These runs calibrate the
// fftCostFactor crossover constant in dist.go: for every (m, n) cell the
// auto kernel should pick whichever of rolling/fft wins here.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{256, 1024, 4096} {
		series := randSeries(rng, n, 0)
		for _, m := range []int{16, 64, 256, 1024} {
			if m > n {
				continue
			}
			queries := make([][]float64, 16)
			for i := range queries {
				queries[i] = randSeries(rng, m, i)
			}
			b.Run(fmt.Sprintf("naive/n=%d/m=%d", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						ts.Dist(q, series)
					}
				}
			})
			for _, kernel := range []Kernel{KernelRolling, KernelFFT} {
				b.Run(fmt.Sprintf("%v/n=%d/m=%d", kernel, n, m), func(b *testing.B) {
					batch := NewBatch(queries)
					batch.SetKernel(kernel)
					out := make([]float64, len(queries))
					p := Prepare(series)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						evalInto(b, batch, p, out, nil)
					}
				})
			}
		}
	}
}

// BenchmarkPrepare measures the per-series preparation cost the cache
// amortises away.
func BenchmarkPrepare(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{256, 4096} {
		series := randSeries(rng, n, 0)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Prepare(series)
			}
		})
	}
}
