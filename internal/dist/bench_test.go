package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// BenchmarkKernels measures the batch engine against the naive per-pair
// ts.Dist scan on three kinds of data:
//
//   - walk: random-walk series and queries over a (series length, query
//     length) grid;
//   - znorm: a z-normalised random walk, with queries cut from another
//     z-normalised random walk, at m/n ∈ {0.05, 0.1, 0.2, 0.5} for the
//     series lengths of UWave (315), Mallat (1024) and HandOutlines (2709) —
//     the shapes the shapelet transform sees;
//   - past: random walks at (n=8192, m=2048), (n=8192, m=4096) and
//     (n=16384, m=8192), past both grids.
//
// The engine rows run the AVX pass on a CPU that has it and the Go pass
// elsewhere.
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
	for _, sh := range [][2]int{{8192, 2048}, {8192, 4096}, {16384, 8192}} {
		n, m := sh[0], sh[1]
		series := randSeries(rng, n, 0)
		queries := make([][]float64, 4)
		for i := range queries {
			queries[i] = randSeries(rng, m, i)
		}
		benchKernels(b, fmt.Sprintf("past/n=%d/m=%d", n, m), series, queries)
	}
}

// benchKernels runs the naive scan and the engine on one cell.
func benchKernels(b *testing.B, cell string, series []float64, queries [][]float64) {
	b.Run("naive/"+cell, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				ts.Dist(q, series)
			}
		}
	})
	b.Run("engine/"+cell, func(b *testing.B) {
		batch := NewBatch(queries)
		out := make([]float64, len(queries))
		p := Prepare(series)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalInto(b, batch, p, out, nil)
		}
	})
}

// benchSink keeps the benchmarked passes' results live.
var benchSink float64

// BenchmarkRollingProfile times the rolling kernel's profile pass alone — the
// Go pass (directDots, then profileFromDots) and, on a CPU with AVX, the AVX
// pass — at UWave's series length and three of the `fit` workload's shapelet
// lengths, and reports ns per multiply-add ((n−m+1)·m per pass).
func BenchmarkRollingProfile(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 315
	p := Prepare(ts.ZNorm(randSeries(rng, n, 0)))
	for _, m := range []int{31, 63, 157} {
		q := ts.ZNorm(randSeries(rng, m, 0))
		qq := sumSq(q)
		prof := make([]float64, n-m+1)
		madds := float64(len(prof) * m)
		passes := []struct {
			name string
			run  func() float64
		}{
			{"go", func() float64 { directDots(q, p.t, prof); return p.profileFromDots(m, qq, prof) }},
			{"avx", func() float64 { return p.profileAVX(q, qq, prof) }},
		}
		for _, pass := range passes {
			if pass.name == "avx" && !avx {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d/m=%d", pass.name, n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = pass.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/madds, "ns/madd")
			})
		}
	}
}

// BenchmarkPrepare measures the per-series preparation cost a resident
// Prepared pays once and every later query against that series reuses.
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
