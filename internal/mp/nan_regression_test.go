package mp

import (
	"context"
	"errors"
	"math"
	"testing"

	"ips/internal/errs"
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

// TestJoinsRejectNonFinite pins the input contract of both joins: one NaN
// would poison the sliding sums of every later window (a 200-point sine
// with one NaN read as a motif at distance √(2w)), so a NaN or ±Inf
// anywhere in either series is a typed bad-input error at the kernel stage
// with no profile, as NewIncremental reports it.
func TestJoinsRejectNonFinite(t *testing.T) {
	ctx := context.Background()
	good := randomSeries(200, 3)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 137, 199} {
			series := append([]float64(nil), good...)
			series[at] = bad
			checks := []struct {
				op  string
				run func() (*Profile, error)
			}{
				{"mp.selfjoin", func() (*Profile, error) { return SelfJoinCtx(ctx, series, 16, nil, Options{Workers: 2}) }},
				{"mp.abjoin", func() (*Profile, error) { return ABJoinCtx(ctx, series, good, 16, nil, nil, Options{}) }},
				{"mp.abjoin", func() (*Profile, error) { return ABJoinCtx(ctx, good, series, 16, nil, nil, Options{}) }},
			}
			for _, c := range checks {
				p, err := c.run()
				var e *errs.Error
				if p != nil || !errors.Is(err, errs.ErrBadInput) || !errors.As(err, &e) ||
					e.Stage != errs.StageKernel || e.Op != c.op {
					t.Fatalf("%s with %v at %d: profile %v, err %v; want no profile and a %s bad-input error at stage %s",
						c.op, bad, at, p != nil, err, c.op, errs.StageKernel)
				}
			}
		}
	}
}
