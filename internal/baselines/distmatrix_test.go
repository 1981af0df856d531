package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// TestDistMatrixMatchesTsDist pins every distMatrix entry bit-equal to
// ts.Dist(query, instance), over query lengths from 8 to 299 on 300-point
// series, for the whole training set and for an out-of-order subset (which
// catches indexing the prepared slice by position instead of by instance),
// on two calls that share one prepared slice.
func TestDistMatrixMatchesTsDist(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	train := &ts.Dataset{Name: "walk"}
	for i := 0; i < 8; i++ {
		v := make(ts.Series, 300)
		x := 0.0
		for j := range v {
			x += rng.NormFloat64()
			v[j] = x
		}
		train.Instances = append(train.Instances, ts.Instance{Label: i % 2, Values: v})
	}
	var queries [][]float64
	for _, m := range []int{8, 9, 33, 64, 100, 150, 200, 298, 299} {
		src := train.Instances[rng.Intn(train.Len())].Values
		at := rng.Intn(len(src) - m + 1)
		q := append([]float64(nil), src[at:at+m]...)
		for l := range q {
			q[l] += 0.1 * rng.NormFloat64()
		}
		queries = append(queries, q)
	}
	prepared := prepareAll(train)
	for _, idx := range [][]int{nil, {5, 0, 7, 2}} {
		D, err := distMatrix(context.Background(), prepared, idx, queries)
		if err != nil {
			t.Fatal(err)
		}
		inst := idx
		if inst == nil {
			inst = []int{0, 1, 2, 3, 4, 5, 6, 7}
		}
		for qi, q := range queries {
			if len(D[qi]) != len(inst) {
				t.Fatalf("idx=%v: row %d has %d entries, want %d", idx, qi, len(D[qi]), len(inst))
			}
			for pos, i := range inst {
				want := ts.Dist(q, train.Instances[i].Values)
				if math.Float64bits(D[qi][pos]) != math.Float64bits(want) {
					t.Fatalf("idx=%v: D[%d][%d] (m=%d, instance %d) = %v, ts.Dist = %v",
						idx, qi, pos, len(q), i, D[qi][pos], want)
				}
			}
		}
	}
}
