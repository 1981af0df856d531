package dist

import (
	"context"
	"math"
	"testing"
)

// allocBatch builds a batch of queries of several lengths plus a synthetic
// series, mirroring a serving model's shapelets.  Every row has at least 16
// windows, so a CPU with AVX runs them all on the AVX pass.
func allocBatch() (*Batch, []float64) {
	lengths := []int{8, 16, 64}
	var queries [][]float64
	for _, m := range lengths {
		for k := 0; k < 3; k++ {
			q := make([]float64, m)
			for i := range q {
				q[i] = math.Sin(float64(i+k)*0.3) + 0.1*float64(k)
			}
			queries = append(queries, q)
		}
	}
	series := make([]float64, 256)
	for i := range series {
		series[i] = math.Cos(float64(i) * 0.07)
	}
	return NewBatch(queries), series
}

// requireZeroAllocs asserts fn performs no allocations per run after one
// warm-up call.
func requireZeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	fn() // warm-up: grow-once buffers fill here
	if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
		t.Errorf("%s: %v allocs/run after warm-up, want 0", what, allocs)
	}
}

// TestBatchEvalAllocs pins the arena contract of EvalScratchCtx: with a warm
// Scratch, re-evaluating a batch allocates nothing — neither on the
// scratch-prepared path (the serve loop: every request series is new) nor on
// the resident path (CV folds re-evaluating series prepared once).
func TestBatchEvalAllocs(t *testing.T) {
	ctx := context.Background()
	b, series := allocBatch()

	out := make([]float64, b.Len())
	var c Counts
	var evalErr error

	var s Scratch
	requireZeroAllocs(t, "scratch-prepared", func() {
		p := s.Prepare(series)
		if err := b.EvalScratchCtx(ctx, p, out, &c, &s); err != nil {
			evalErr = err
		}
	})

	var s2 Scratch
	p := Prepare(series) // resident series, prepared once outside the loop
	requireZeroAllocs(t, "resident", func() {
		if err := b.EvalScratchCtx(ctx, p, out, &c, &s2); err != nil {
			evalErr = err
		}
	})
	if evalErr != nil {
		t.Fatalf("eval: %v", evalErr)
	}
}

// TestScratchMatchesEvalInto pins that the scratch-prepared route matches
// the resident-Prepared route with a per-call scratch: byte-identical output.
func TestScratchMatchesEvalInto(t *testing.T) {
	b, series := allocBatch()
	p := Prepare(series)
	want := evalInto(t, b, p, make([]float64, b.Len()), nil)

	var s Scratch
	got := make([]float64, b.Len())
	if err := b.EvalScratchCtx(context.Background(), s.Prepare(series), got, nil, &s); err != nil {
		t.Fatalf("scratch eval: %v", err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: scratch route = %v, resident route = %v (must be byte-identical)", i, got[i], want[i])
		}
	}
}
