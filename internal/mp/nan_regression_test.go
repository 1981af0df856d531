package mp

import (
	"math"
	"testing"

	"ips/internal/ts"
)

// These tests pin the profile-level NaN contract surfaced by FuzzSelfJoin /
// FuzzMASS: constant subsequences and overflow-scale magnitudes must never
// put NaN into a profile.

func TestMASSConstantQueryIsSqrt2W(t *testing.T) {
	w := 16
	q := make([]float64, w) // all zeros: zero variance
	series := randomSeries(200, 3)
	prof := MASS(q, series)
	want := math.Sqrt(2 * float64(w))
	for i, v := range prof {
		if !ts.ApproxEqual(v, want, 1e-9) {
			t.Fatalf("prof[%d] = %v, want %v (constant query convention)", i, v, want)
		}
	}
}

func TestMASSConstantEverythingIsZero(t *testing.T) {
	q := []float64{2, 2, 2, 2}
	series := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	for i, v := range MASS(q, series) {
		if v != 0 {
			t.Fatalf("prof[%d] = %v, want 0 (two constants are at distance 0)", i, v)
		}
	}
}

func TestMASSHugeMagnitudesNoNaN(t *testing.T) {
	series := randomSeries(120, 8)
	for i := range series {
		series[i] *= 1e170 // squares overflow the sliding statistics
	}
	q := series[10:26]
	for i, v := range MASS(q, series) {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("prof[%d] = %v, want finite non-negative", i, v)
		}
	}
}

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
