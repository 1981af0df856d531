package dist

import (
	"math"
	"math/rand"
	"testing"

	"ips/internal/cpu"
)

// refProfile is the rolling kernel's Go pass (directDots, then
// profileFromDots) written so that no GOAMD64 level can fuse a product into
// an add: the explicit float64 conversions round each product on its own.
// It is the oracle the AVX pass must match bit for bit.
func refProfile(p *Prepared, q []float64, qq float64, out []float64) float64 {
	m := len(q)
	minHat := math.Inf(1)
	for j := range out {
		var d float64
		for l := range q {
			d += float64(q[l] * p.t[j+l])
		}
		ws := p.prefixSq[j+m] - p.prefixSq[j]
		if ws < 0 {
			ws = 0
		}
		s := ws - float64(2*d) + qq
		if s < 0 {
			s = 0
		}
		out[j] = s
		if s < minHat {
			minHat = s
		}
	}
	return minHat
}

// levelSeries draws n values from a few integer levels, so many windows tie
// exactly in the profile.
func levelSeries(rng *rand.Rand, n, levels int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Intn(levels))
	}
	return out
}

// TestRollingProfileMatchesGo pins the AVX pass (profileAVX, which cuts a
// row into rollingProfileAVX calls) to the Go pass: every window's ŝ and the
// minimum must be equal under == (so +0 and −0 agree) to refProfile's.  The
// shapes put the window count w on every residue mod 16, on w = 16 exactly
// (m = n − 15) and under m = 1, from n = 16 to 600; one more row is long
// enough to be cut into chunks, its last chunk shorter than a block.  The
// data: random walks, noise offset by ±1e6, integer levels with exact ties, a
// zero query, and 1e150-scale values with spikes whose Σt² + Σq² overflows.
// The output is pre-filled with NaN, so a window the pass never writes fails.
func TestRollingProfileMatchesGo(t *testing.T) {
	if !cpu.AVX() {
		t.Log("no AVX on this CPU or GOARCH: the rolling kernel runs the Go pass only")
		t.Skip()
	}
	rng := rand.New(rand.NewSource(16))
	type shape struct{ n, m int }
	var shapes []shape
	for n := 16; n <= 600; n += 41 {
		shapes = append(shapes, shape{n, 1}, shape{n, n - 15})
		for r := 0; r < 16; r++ {
			w := 16 + r + 16*rng.Intn((n-16-r)/16+1)
			if w <= n {
				shapes = append(shapes, shape{n, n - w + 1})
			}
		}
	}
	// 2¹⁸/300 rounds to 864-window chunks; w = 5·864 + 7 leaves a 7-window
	// tail that must overlap the chunk before it.
	shapes = append(shapes, shape{5*864 + 7 + 299, 300})

	// check compares the passes on one pair and returns how many windows'
	// ŝ is +Inf.
	check := func(name string, series, q []float64) int {
		t.Helper()
		p := Prepare(series)
		qq := sumSq(q)
		w := len(series) - len(q) + 1
		want := make([]float64, w)
		wantMin := refProfile(p, q, qq, want)
		got := make([]float64, w)
		for j := range got {
			got[j] = math.NaN()
		}
		gotMin := p.profileAVX(q, qq, got)
		for j := range want {
			if math.IsNaN(want[j]) {
				t.Fatalf("%s n=%d m=%d: reference ŝ[%d] is NaN; the input must keep every prefix sum finite", name, len(series), len(q), j)
			}
			if got[j] != want[j] {
				t.Fatalf("%s n=%d m=%d: ŝ[%d] = %v (bits %x), Go pass %v (bits %x)",
					name, len(series), len(q), j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
		if gotMin != wantMin {
			t.Fatalf("%s n=%d m=%d: min = %v, Go pass %v", name, len(series), len(q), gotMin, wantMin)
		}
		inf := 0
		for _, v := range want {
			if math.IsInf(v, 1) {
				inf++
			}
		}
		return inf
	}

	for _, sh := range shapes {
		n, m := sh.n, sh.m
		walk := randSeries(rng, n, 0)
		at := rng.Intn(n - m + 1)
		check("walk/self", walk, append([]float64(nil), walk[at:at+m]...))
		check("walk/other", walk, randSeries(rng, m, 0))
		for _, off := range []float64{1e6, -1e6} {
			series, q := randSeries(rng, n, 1), randSeries(rng, m, 1)
			for i := range series {
				series[i] += off
			}
			for i := range q {
				q[i] += off
			}
			check("offset", series, q)
		}
		levels := levelSeries(rng, n, 2+rng.Intn(3))
		check("levels", levels, levelSeries(rng, m, 3))
		check("levels/self", levels, append([]float64(nil), levels[at:at+m]...))
		check("zero query", walk, make([]float64, m))
	}

	// 1e150-scale data with one 1.2e154 spike in the series and one in the
	// query: Σt² stays finite (the prefix sums never overflow), but Σt² + Σq²
	// does, and so does a window's energy plus the query's (ŝ = +Inf) or
	// twice a dot that pairs the two spikes (−Inf, clamped to 0).
	inf := 0
	for _, m := range []int{1, 8, 16, 24} {
		series, q := randSeries(rng, 40, 1), randSeries(rng, m, 1)
		for i := range series {
			series[i] *= 1e150
		}
		for i := range q {
			q[i] *= 1e150
		}
		series[20] = 1.2e154
		for _, sign := range []float64{1, -1} {
			q[m/2] = sign * 1.2e154
			inf += check("overflow", series, q)
		}
	}
	if inf == 0 {
		t.Fatal("the overflow inputs produced no +Inf profile value")
	}
}
