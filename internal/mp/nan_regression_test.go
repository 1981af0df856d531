package mp

import (
	"math"
	"testing"
)

// These tests pin the profile-level NaN contract surfaced by FuzzSelfJoin:
// constant subsequences and overflow-scale magnitudes must never put NaN
// into a profile.

func TestSelfJoinFlatSegmentNoNaN(t *testing.T) {
	series := randomSeries(150, 11)
	for i := 40; i < 90; i++ {
		series[i] = 7.25 // long constant run: many zero-variance windows
	}
	for _, workers := range []int{1, 4} {
		p := selfJoin(t, series, 12, nil, workers)
		for i, v := range p.P {
			if math.IsNaN(v) {
				t.Fatalf("workers=%d: P[%d] is NaN", workers, i)
			}
			if !math.IsInf(v, 1) && (p.I[i] < 0 || p.I[i] >= p.Len()) {
				t.Fatalf("workers=%d: I[%d] = %d out of range", workers, i, p.I[i])
			}
		}
	}
}

func TestSelfJoinHugeMagnitudesNoNaN(t *testing.T) {
	series := randomSeries(100, 13)
	for i := range series {
		series[i] *= 1e180
	}
	p := selfJoin(t, series, 8, nil, 1)
	for i, v := range p.P {
		if math.IsNaN(v) {
			t.Fatalf("P[%d] is NaN", i)
		}
	}
}
