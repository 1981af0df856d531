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
// block width occurs.
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

// TestBatchKernelsMatchTsDist runs the batch engine over several workloads
// and requires byte-identical agreement with ts.Dist per (query, series)
// pair.  The query lengths make the window count w = n−m+1 take every value
// from 1 to 9 and eight consecutive larger values, so every register-block
// edge of the rolling kernel is hit, and a NaN query sits between two finite
// queries of the same length (it must neither fail nor poison its
// neighbours' shared buffers).
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
		b := NewBatch(queries)
		p := Prepare(series)
		var c Counts
		out := make([]float64, len(queries))
		evalInto(t, b, p, out, &c)
		for i := range out {
			if !bitsEqual(out[i], want[i]) {
				t.Fatalf("kind=%d query %d (m=%d): got %v (bits %x), want %v (bits %x)",
					kind, i, len(queries[i]), out[i], math.Float64bits(out[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if c.Rolling+c.Exact != int64(len(queries)) {
			t.Fatalf("kind=%d counts %+v do not cover %d queries", kind, c, len(queries))
		}
		if c.Exact != 1 {
			t.Fatalf("kind=%d counts %+v: want exactly the NaN query on the exact fallback", kind, c)
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

// TestCountsFlush verifies the obs plumbing end to end: counters land in the
// registry under the dist.* namespace and span attributes are recorded.  Its
// long query, (n=16384, m=8192), is the largest shape any test evaluates:
// the AVX pass cuts its row into chunks of 32 windows (other CPUs run the Go
// pass), and both values must still be bit-equal to ts.Dist.
func TestCountsFlush(t *testing.T) {
	o := obs.New("test")
	rng := rand.New(rand.NewSource(9))
	series := randSeries(rng, 16384, 0)
	queries := [][]float64{randSeries(rng, 8, 1), randSeries(rng, 8192, 1)}
	b := NewBatch(queries)
	p := Prepare(series)
	var c Counts
	out := evalInto(t, b, p, make([]float64, len(queries)), &c)
	for i, q := range queries {
		if want := ts.Dist(q, series); !bitsEqual(out[i], want) {
			t.Fatalf("query %d (m=%d): got %v (bits %x), ts.Dist %v (bits %x)",
				i, len(q), out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
		}
	}
	if c.Rolling != 2 {
		t.Fatalf("counts %+v: want both queries on the rolling kernel", c)
	}
	c.AddTo(o.Metrics())
	if got := o.Metrics().Counter("dist.kernel.rolling").Value(); got != c.Rolling {
		t.Fatalf("registry rolling = %d, want %d", got, c.Rolling)
	}
	// The exact step re-sums at least the minimising window of each query.
	if got := o.Metrics().Counter("dist.refined_windows").Value(); got != c.Refined || c.Refined < int64(len(queries)) {
		t.Fatalf("registry refined_windows = %d, want %d (at least one per query)", got, c.Refined)
	}
	sp := o.Root().Child("eval")
	c.Annotate(sp)
	sp.End()
	if len(sp.Attrs()) != 2 {
		t.Fatalf("span attrs = %v, want 2", sp.Attrs())
	}
}
