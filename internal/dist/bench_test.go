package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// BenchmarkKernels measures each kernel against the naive per-pair ts.Dist
// scan on two kinds of data:
//
//   - walk: random-walk series and queries over a (series length, query
//     length) grid;
//   - znorm: a z-normalised random walk, with queries cut from another
//     z-normalised random walk, at m/n ∈ {0.05, 0.1, 0.2, 0.5} for the
//     series lengths of UWave (315), Mallat (1024) and HandOutlines (2709) —
//     the shapes the shapelet transform sees.
//
// These runs calibrate the fftCostFactor and fftMinQueryLen crossover
// constants in dist.go: for every (m, n) cell the auto kernel should pick
// whichever of rolling/fft wins here.
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
			benchKernels(b, fmt.Sprintf("walk/n=%d/m=%d", n, m), series, queries)
		}
	}
	for _, n := range []int{315, 1024, 2709} {
		series := ts.ZNorm(randSeries(rng, n, 0))
		source := ts.ZNorm(randSeries(rng, n, 0))
		for _, ratio := range []float64{0.05, 0.1, 0.2, 0.5} {
			m := int(ratio * float64(n))
			queries := make([][]float64, 16)
			for i := range queries {
				at := rng.Intn(n - m + 1)
				queries[i] = source[at : at+m]
			}
			benchKernels(b, fmt.Sprintf("znorm/n=%d/m=%d", n, m), series, queries)
		}
	}
}

// benchKernels runs the naive scan and each forced kernel on one cell.
func benchKernels(b *testing.B, cell string, series []float64, queries [][]float64) {
	b.Run("naive/"+cell, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				ts.Dist(q, series)
			}
		}
	})
	for _, kernel := range []Kernel{KernelRolling, KernelFFT} {
		b.Run(fmt.Sprintf("%v/%s", kernel, cell), func(b *testing.B) {
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
