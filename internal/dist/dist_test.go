package dist

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ips/internal/obs"
	"ips/internal/ts"
)

// evalInto runs EvalScratchCtx with a per-call scratch on a context that
// never cancels, failing the test on error, and returns out.
func evalInto(tb testing.TB, b *Batch, p *Prepared, out []float64, c *Counts) []float64 {
	tb.Helper()
	if err := b.EvalScratchCtx(context.Background(), p, out, c, nil); err != nil {
		tb.Fatal(err)
	}
	return out
}

// randSeries draws a series whose character depends on kind: random walks
// (the benchmark substrate), iid noise, near-constant runs (norm-bound and
// refinement tie stress), and large-offset data (cancellation stress).
func randSeries(rng *rand.Rand, n, kind int) []float64 {
	out := make([]float64, n)
	switch kind % 4 {
	case 0:
		v := 0.0
		for i := range out {
			v += rng.NormFloat64()
			out[i] = v
		}
	case 1:
		for i := range out {
			out[i] = rng.NormFloat64()
		}
	case 2:
		level := rng.Float64()
		for i := range out {
			out[i] = level
			if rng.Intn(8) == 0 {
				out[i] += rng.NormFloat64() * 1e-3
			}
		}
	case 3:
		for i := range out {
			out[i] = 1e6 + rng.NormFloat64()
		}
	}
	return out
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestDistMatchesTsDist drives the single-query path over a broad shape and
// data sweep and requires byte-identical agreement with ts.Dist.  The shapes
// make the window count w = n−m+1 take every value from 1 to 9 and eight
// consecutive larger values, so every residue modulo the rolling kernel's
// block width occurs; the longest shape crosses to the fft kernel against
// the Go pass.
func TestDistMatchesTsDist(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][2]int{
		{1, 1}, {5, 3}, {16, 16}, {40, 7}, {64, 64}, {120, 17},
		{256, 64}, {256, 128}, {300, 299}, {512, 256}, {2709, 1354},
	}
	for w := 1; w <= 9; w++ {
		shapes = append(shapes, [2]int{40, 40 - w + 1})
	}
	for r := 1; r <= 8; r++ {
		shapes = append(shapes, [2]int{120, 17 + r})
	}
	for kind := 0; kind < 4; kind++ {
		for _, sh := range shapes {
			n, m := sh[0], sh[1]
			series := randSeries(rng, n, kind)
			p := Prepare(series)
			for rep := 0; rep < 3; rep++ {
				var q []float64
				if rep == 0 && m <= n {
					at := rng.Intn(n - m + 1)
					q = append([]float64(nil), series[at:at+m]...) // exact match in series
				} else {
					q = randSeries(rng, m, kind+rep)
				}
				want := ts.Dist(q, series)
				got := p.Dist(q)
				if !bitsEqual(got, want) {
					t.Fatalf("kind=%d n=%d m=%d rep=%d: Dist=%v (bits %x), ts.Dist=%v (bits %x)",
						kind, n, m, rep, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestBatchKernelsMatchTsDist forces each kernel over the same workloads and
// requires byte-identical agreement with ts.Dist per (query, series) pair —
// the property that makes kernel choice a pure throughput knob.  The query
// lengths make the window count w = n−m+1 take every value from 1 to 9 and
// eight consecutive larger values, so every register-block edge of the
// rolling kernel is hit, and a NaN query sits between two finite queries of
// the same length (it must neither fail nor poison its neighbours' shared
// buffers).
func TestBatchKernelsMatchTsDist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for kind := 0; kind < 4; kind++ {
		n := 300 + kind*100
		series := randSeries(rng, n, kind)
		lengths := []int{1, 4, 64, 64, 100, 200}
		for w := 1; w <= 9; w++ {
			lengths = append(lengths, n-w+1)
		}
		for r := 0; r < 8; r++ {
			lengths = append(lengths, 33+r)
		}
		var queries [][]float64
		for _, m := range lengths {
			if rng.Intn(2) == 0 {
				at := rng.Intn(n - m + 1)
				queries = append(queries, append([]float64(nil), series[at:at+m]...))
			} else {
				queries = append(queries, randSeries(rng, m, kind+1))
			}
		}
		poisoned := randSeries(rng, 50, kind+1)
		poisoned[7] = math.NaN()
		queries = append(queries, randSeries(rng, 50, kind+1), poisoned, randSeries(rng, 50, kind+2))
		want := make([]float64, len(queries))
		for i, q := range queries {
			want[i] = ts.Dist(q, series)
		}
		for _, kernel := range []Kernel{KernelAuto, KernelRolling, KernelFFT} {
			b := NewBatch(queries)
			b.SetKernel(kernel)
			p := Prepare(series)
			var c Counts
			out := make([]float64, len(queries))
			evalInto(t, b, p, out, &c)
			for i := range out {
				if !bitsEqual(out[i], want[i]) {
					t.Fatalf("kind=%d kernel=%v query %d (m=%d): got %v (bits %x), want %v (bits %x)",
						kind, kernel, i, len(queries[i]), out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
				}
			}
			if c.Rolling+c.FFT+c.Exact != int64(len(queries)) {
				t.Fatalf("kernel=%v counts %+v do not cover %d queries", kernel, c, len(queries))
			}
			if c.Exact != 1 {
				t.Fatalf("kernel=%v counts %+v: want exactly the NaN query on the exact fallback", kernel, c)
			}
			if kernel == KernelFFT && c.FFT == 0 {
				t.Fatalf("forced fft kernel evaluated nothing via fft: %+v", c)
			}
			if kernel == KernelRolling && c.FFT != 0 {
				t.Fatalf("forced rolling kernel used fft: %+v", c)
			}
		}
	}
}

// TestDegenerateInputs pins the fallback paths: empty sides, over-long
// queries, and non-finite data all agree with ts.Dist (bitwise, including
// the +Inf result for NaN-poisoned input).
func TestDegenerateInputs(t *testing.T) {
	series := []float64{1, 2, 3}
	cases := []struct {
		name string
		t, q []float64
	}{
		{"empty query", series, nil},
		{"empty series", nil, series},
		{"both empty", nil, nil},
		{"query longer", series, []float64{1, 2, 3, 4, 5}},
		{"nan series", []float64{1, math.NaN(), 3, 4}, []float64{1, 2}},
		{"nan query", []float64{1, 2, 3, 4}, []float64{math.NaN(), 2}},
		{"inf series", []float64{1, math.Inf(1), 3, 4}, []float64{1, 2}},
		{"overflow series", []float64{1e200, 1e200, 3, 4}, []float64{1, 2}},
	}
	for _, tc := range cases {
		p := Prepare(tc.t)
		want := ts.Dist(tc.q, tc.t)
		got := p.Dist(tc.q)
		if !bitsEqual(got, want) {
			t.Errorf("%s: Dist=%v, ts.Dist=%v", tc.name, got, want)
		}
		b := NewBatch([][]float64{tc.q})
		if out := evalInto(t, b, p, make([]float64, 1), nil); !bitsEqual(out[0], want) {
			t.Errorf("%s: batch=%v, ts.Dist=%v", tc.name, out[0], want)
		}
	}
}

// TestWindowSums pins the windowed sum of squares against direct summation.
func TestWindowSums(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series := randSeries(rng, 64, 1)
	p := Prepare(series)
	for _, w := range []int{1, 5, 64} {
		for j := 0; j+w <= len(series); j += 7 {
			var sq float64
			for _, v := range series[j : j+w] {
				sq += v * v
			}
			if got := p.WindowSqSum(j, w); !ts.ApproxEqualRel(got, sq, 1e-9) || got < 0 {
				t.Fatalf("WindowSqSum(%d,%d) = %v, want %v", j, w, got, sq)
			}
		}
	}
}

// TestKernelFor pins the crossover shape: short queries roll, long queries
// against long series cross to fft, degenerate shapes are exact.  Where the
// crossover lies depends on the rolling pass: (n=4096, m=512) is fft's
// against the Go pass and rolling's on the AVX pass.
func TestKernelFor(t *testing.T) {
	if k := KernelFor(8, 4096); k != KernelRolling {
		t.Fatalf("KernelFor(8, 4096) = %v, want rolling", k)
	}
	if k := KernelFor(8192, 16384); k != KernelFFT {
		t.Fatalf("KernelFor(8192, 16384) = %v, want fft", k)
	}
	want := KernelFFT
	if avx {
		want = KernelRolling
	}
	if k := KernelFor(512, 4096); k != want {
		t.Fatalf("KernelFor(512, 4096) = %v, want %v (avx %v)", k, want, avx)
	}
	if k := KernelFor(0, 100); k != KernelExact {
		t.Fatalf("KernelFor(0, 100) = %v, want exact", k)
	}
	if k := KernelFor(200, 100); k != KernelExact {
		t.Fatalf("KernelFor(200, 100) = %v, want exact", k)
	}
}

// TestCountsFlush verifies the obs plumbing end to end: counters land in the
// registry under the dist.* namespace and span attributes are recorded.
func TestCountsFlush(t *testing.T) {
	o := obs.New("test")
	rng := rand.New(rand.NewSource(9))
	series := randSeries(rng, 16384, 0)
	queries := [][]float64{randSeries(rng, 8, 1), randSeries(rng, 8192, 1)}
	b := NewBatch(queries)
	p := Prepare(series)
	var c Counts
	evalInto(t, b, p, make([]float64, len(queries)), &c)
	c.AddTo(o.Metrics())
	if got := o.Metrics().Counter("dist.kernel.rolling").Value(); got != c.Rolling {
		t.Fatalf("registry rolling = %d, want %d", got, c.Rolling)
	}
	if got := o.Metrics().Counter("dist.kernel.fft").Value(); got != c.FFT || c.FFT == 0 {
		t.Fatalf("registry fft = %d, want %d (nonzero)", got, c.FFT)
	}
	// Both kernels re-sum at least the minimising window exactly.
	if got := o.Metrics().Counter("dist.refined_windows").Value(); got != c.Refined || c.Refined < int64(len(queries)) {
		t.Fatalf("registry refined_windows = %d, want %d (at least one per query)", got, c.Refined)
	}
	sp := o.Root().Child("eval")
	c.Annotate(sp)
	sp.End()
	if len(sp.Attrs()) != 3 {
		t.Fatalf("span attrs = %v, want 3", sp.Attrs())
	}
}

// TestFFTTransformCacheReuse verifies the padded transform is built once per
// pad size and shared across queries and calls.
func TestFFTTransformCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	series := randSeries(rng, 1000, 0)
	p := Prepare(series)
	queries := [][]float64{randSeries(rng, 400, 1), randSeries(rng, 400, 2), randSeries(rng, 420, 1)}
	b := NewBatch(queries)
	b.SetKernel(KernelFFT)
	var c Counts
	evalInto(t, b, p, make([]float64, len(queries)), &c)
	if c.FFTCacheMisses == 0 || c.FFTCacheHits == 0 {
		t.Fatalf("expected both misses and hits across shared pad sizes: %+v", c)
	}
	before := c
	evalInto(t, b, p, make([]float64, len(queries)), &c)
	if c.FFTCacheMisses != before.FFTCacheMisses {
		t.Fatalf("second pass rebuilt transforms: %+v", c)
	}
}
