package mp

import (
	"fmt"
	"math"
	"testing"
)

// TestParallelMergeByteIdentical drives a join large enough to cross the
// parallelMergeMin threshold, so the partial-profile min-reduction actually
// runs chunked across goroutines, and requires the profile byte-identical to
// the sequential worker-count-1 result.  The property suite's cases are two
// orders of magnitude smaller and never reach the parallel merge.
func TestParallelMergeByteIdentical(t *testing.T) {
	const n, w = parallelMergeMin + 1000, 32
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(float64(i)*0.02) + 0.3*math.Cos(float64(i)*0.11)
	}
	if len(series)-w+1 < parallelMergeMin {
		t.Fatalf("fixture too small to exercise the parallel merge")
	}
	ref := selfJoin(t, series, w, nil, 1)
	for _, workers := range []int{2, 8} {
		got := selfJoin(t, series, w, nil, workers)
		requireIdentical(t, got, ref, fmt.Sprintf("large self-join workers=%d", workers))
	}
}
