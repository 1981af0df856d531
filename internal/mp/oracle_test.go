package mp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ips/internal/ts"
	"ips/internal/ucr"
)

// oracleSelfJoin is the one-diagonal STOMP walk the four-lane walker
// replaced, kept as the reference the kernel must match bit for bit: the
// diagonals in order, every valid cell through ts.ZNormSqDistFromStats and
// both partial updates, one partial, the kernel's merge.
func oracleSelfJoin(t []float64, w int, valid []bool) *Profile {
	n := len(t) - w + 1
	if n <= 0 || w <= 0 {
		return &Profile{W: w}
	}
	p := &Profile{P: make([]float64, n), I: make([]int, n), W: w}
	lo := max(w/2, 1) + 1
	if lo >= n {
		for i := range p.P {
			p.P[i], p.I[i] = math.Inf(1), -1
		}
		return p
	}
	means, stds := ts.MovingMeanStd(t, w)
	first := ts.SlidingDots(t[:w], t)
	pt := getPartial(n)
	for k := lo; k < n; k++ {
		dot := first[k]
		for i, j := 0, k; j < n; i, j = i+1, j+1 {
			if i > 0 {
				dot = rollDot(dot, t[i-1], t[j-1], t[i+w-1], t[j+w-1])
			}
			if valid != nil && (!valid[i] || !valid[j]) {
				continue
			}
			d := ts.ZNormSqDistFromStats(dot, w, means[i], stds[i], means[j], stds[j])
			pt.update(i, d, j)
			pt.update(j, d, i)
		}
	}
	mergePartials([]*partial{pt}, p)
	return p
}

// oracleCase is one self-join the kernel must reproduce exactly.
type oracleCase struct {
	name  string
	t     []float64
	w     int
	valid []bool
}

// uwaveSamples returns samples of three synthetic UWaveGestureLibraryY
// training instances each (the paper's default QS), drawn as Algorithm 1
// draws them, concatenated, with their instance start offsets.
func uwaveSamples(tb testing.TB, samples int, maxTrain int) (cats []ts.Series, starts [][]int) {
	tb.Helper()
	meta, ok := ucr.Lookup("UWaveGestureLibraryY")
	if !ok {
		tb.Fatal("UWaveGestureLibraryY not in the synthetic archive")
	}
	train, _ := ucr.Generate(meta, ucr.GenConfig{MaxTrain: maxTrain, MaxTest: 1, Seed: 1})
	ins := train.ByClass()[train.Classes()[0]]
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < samples; s++ {
		cat, st := ts.ConcatenateInstances(ts.Sample(ins, 3, rng))
		cats = append(cats, cat)
		starts = append(starts, st)
	}
	return cats, starts
}

// ipLengths returns the five candidate lengths Algorithm 1 uses on
// length-n instances (ratios 0.1 to 0.5).
func ipLengths(n int) []int {
	var out []int
	for _, r := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		out = append(out, int(r*float64(n)))
	}
	return out
}

// oracleCases builds the suite TestSelfJoinMatchesOracle runs: the
// instance-profile joins the fit workload runs, and inputs aimed at the
// skip test's edges.
func oracleCases(t *testing.T) []oracleCase {
	var cases []oracleCase

	// Instance-profile joins: three UWave instances, all five lengths,
	// boundary-masked.
	cats, starts := uwaveSamples(t, 2, 24)
	for s, cat := range cats {
		for _, L := range ipLengths(len(cat) / 3) {
			cases = append(cases, oracleCase{fmt.Sprintf("uwave/sample=%d/L=%d", s, L), cat, L, ts.BoundaryMask(starts[s], len(cat), L)})
		}
	}

	// Random walks whose diagonal count n−(w/2+1) leaves each remainder
	// mod 4, so walk4's groups end on every offset of walkDiag's tail.
	for _, w := range []int{2, 3, 4, 5, 8, 13, 31, 64} {
		for extra := 0; extra < 4; extra++ {
			n := 3*w + 40 + extra
			series := randomSeries(n+w-1, int64(100*w+extra))
			cases = append(cases, oracleCase{fmt.Sprintf("walk/w=%d/n=%d", w, n), series, w, nil})
		}
	}
	masked := randomSeries(300, 7)
	valid := make([]bool, len(masked)-16+1)
	for i := range valid {
		valid[i] = i%7 != 3 && i%11 != 5
	}
	cases = append(cases, oracleCase{"walk/masked", masked, 16, valid})

	// Constant runs: zero-variance windows keep the floor −Inf, and a
	// constant against a constant is a 0 tie.
	flat := randomSeries(260, 11)
	for i := 40; i < 90; i++ {
		flat[i] = 7.25
	}
	for i := 150; i < 200; i++ {
		flat[i] = -3
	}
	cases = append(cases, oracleCase{"constant-runs", flat, 12, nil})
	allFlat := make([]float64, 80)
	for i := range allFlat {
		allFlat[i] = 2.5
	}
	cases = append(cases, oracleCase{"constant", allFlat, 8, nil})

	// An exactly anti-correlated window pair: a pattern and its negation,
	// so the pair's correlation clamps to −1 and several cells tie at 4w.
	cases = append(cases, antiCorrelatedCases()...)

	// Series on a few integer levels, some on an offset, a third of them
	// boundary-masked: exact dot products and repeated windows give
	// bit-equal distances at every correlation, so ties to the lower index
	// are decided all over the profile, and some cells land within a few
	// ulps of a floor, where the skip test needs corrMargin.
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 120; c++ {
		w := 3 + rng.Intn(10)
		levels := 2 + rng.Intn(8)
		offset := []float64{0, 0.5, 1e3 + 0.1, 1e6 + 0.37}[rng.Intn(4)]
		series := make([]float64, 100+rng.Intn(200))
		for i := range series {
			series[i] = offset + float64(rng.Intn(levels))
		}
		var valid []bool
		if c%3 == 0 {
			valid = ts.BoundaryMask([]int{0, len(series) / 3, len(series) / 2}, len(series), w)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("levels/%d/w=%d", c, w), series, w, valid})
	}

	// 1e180-scale values: the sliding statistics overflow to ±Inf and NaN.
	huge := randomSeries(120, 13)
	for i := range huge {
		huge[i] *= 1e180
	}
	cases = append(cases, oracleCase{"huge", huge, 8, nil})
	mixed := randomSeries(120, 17)
	for i := 30; i < 50; i++ {
		mixed[i] *= 1e180
	}
	cases = append(cases, oracleCase{"huge-segment", mixed, 8, nil})
	return cases
}

// antiCorrelatedCases returns series holding a pattern twice and, after
// both, its negation, masked so those three windows are the only ones: the
// negation's two neighbours are exactly anti-correlated, so both cells clamp
// to the maximum 4w and tie, and the lower index, walked later, must win.
// On a large offset the rounding in num pushes such quotients below −1 by
// far more than corrMargin.
func antiCorrelatedCases() []oracleCase {
	const w, gap = 9, 27
	var cases []oracleCase
	for v, offset := range []float64{0, 1e7 + 0.3, 3e6 + 0.7, 1e8 + 0.1} {
		rng := rand.New(rand.NewSource(int64(v + 1)))
		pat := make([]float64, w)
		for i := range pat {
			pat[i] = float64(rng.Intn(9) - 4)
		}
		t := make([]float64, 3*gap+w)
		for i := range t {
			t[i] = offset + float64(rng.Intn(5)-2)
		}
		for l, x := range pat {
			t[l], t[gap+l], t[2*gap+l] = offset+x, offset+x, offset-x
		}
		valid := make([]bool, len(t)-w+1)
		valid[0], valid[gap], valid[2*gap] = true, true, true
		cases = append(cases, oracleCase{fmt.Sprintf("anti-correlated/offset=%g", offset), t, w, valid})
	}
	return cases
}

// TestSelfJoinMatchesOracle pins the four-lane walker with its skip test to
// the one-diagonal walk it replaced: bit-equal P and I at every worker
// count.
func TestSelfJoinMatchesOracle(t *testing.T) {
	for _, tc := range oracleCases(t) {
		want := oracleSelfJoin(tc.t, tc.w, tc.valid)
		for _, workers := range []int{1, 2, 3, 8} {
			got := selfJoin(t, tc.t, tc.w, tc.valid, workers)
			requireIdentical(t, got, want, fmt.Sprintf("%s/workers=%d", tc.name, workers))
		}
	}
}

// BenchmarkInstanceProfile runs the fit workload's instance-profile joins:
// one synthetic UWaveGestureLibraryY class's 10 samples of three instances,
// each at all five candidate lengths, boundary-masked.
func BenchmarkInstanceProfile(b *testing.B) {
	cats, starts := uwaveSamples(b, 10, 0)
	type join struct {
		cat   []float64
		w     int
		valid []bool
	}
	var joins []join
	for s, cat := range cats {
		for _, L := range ipLengths(len(cat) / 3) {
			joins = append(joins, join{cat, L, ts.BoundaryMask(starts[s], len(cat), L)})
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, j := range joins {
					selfJoin(b, j.cat, j.w, j.valid, workers)
				}
			}
		})
	}
}
