package mp

import (
	"fmt"
	"math"
	"testing"
)

// TestParallelMergeByteIdentical is the large multi-worker byte-identity
// check: a join of about 5,000 windows, split into tiles across 2 and 8
// workers whose partial profiles are min-merged, must be byte-identical to
// the worker-count-1 result.  The property suite's cases are two orders of
// magnitude smaller.
func TestParallelMergeByteIdentical(t *testing.T) {
	const n, w = 5096, 32
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(float64(i)*0.02) + 0.3*math.Cos(float64(i)*0.11)
	}
	ref := selfJoin(t, series, w, nil, 1)
	for _, workers := range []int{2, 8} {
		got := selfJoin(t, series, w, nil, workers)
		requireIdentical(t, got, ref, fmt.Sprintf("large self-join workers=%d", workers))
	}
}
