package mp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// selfJoin runs SelfJoinCtx with the given worker count on a context that
// never cancels, failing the test on error.
func selfJoin(tb testing.TB, t []float64, w int, valid []bool, workers int) *Profile {
	tb.Helper()
	p, err := SelfJoinCtx(context.Background(), t, w, valid, Options{Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// abJoin is selfJoin for ABJoinCtx.
func abJoin(tb testing.TB, a, b []float64, w int, validA, validB []bool, workers int) *Profile {
	tb.Helper()
	p, err := ABJoinCtx(context.Background(), a, b, w, validA, validB, Options{Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// naiveSelfJoin computes the self-join matrix profile directly from the
// definition, used as an oracle for the STOMP implementation.
func naiveSelfJoin(t []float64, w int, valid []bool) *Profile {
	n := len(t) - w + 1
	p := &Profile{P: make([]float64, n), I: make([]int, n), W: w}
	excl := w / 2
	if excl < 1 {
		excl = 1
	}
	ok := func(i int) bool { return valid == nil || valid[i] }
	for i := 0; i < n; i++ {
		p.P[i] = math.Inf(1)
		p.I[i] = -1
		if !ok(i) {
			continue
		}
		zi := ts.ZNorm(t[i : i+w])
		for j := 0; j < n; j++ {
			if !ok(j) {
				continue
			}
			d := i - j
			if d < 0 {
				d = -d
			}
			if d <= excl {
				continue
			}
			zj := ts.ZNorm(t[j : j+w])
			dist := math.Sqrt(ts.SqDist(zi, zj))
			if dist < p.P[i] {
				p.P[i] = dist
				p.I[i] = j
			}
		}
	}
	return p
}

func naiveABJoin(a, b []float64, w int, validA, validB []bool) *Profile {
	na := len(a) - w + 1
	nb := len(b) - w + 1
	p := &Profile{P: make([]float64, na), I: make([]int, na), W: w}
	okA := func(i int) bool { return validA == nil || validA[i] }
	okB := func(i int) bool { return validB == nil || validB[i] }
	for i := 0; i < na; i++ {
		p.P[i] = math.Inf(1)
		p.I[i] = -1
		if !okA(i) {
			continue
		}
		zi := ts.ZNorm(a[i : i+w])
		for j := 0; j < nb; j++ {
			if !okB(j) {
				continue
			}
			zj := ts.ZNorm(b[j : j+w])
			dist := math.Sqrt(ts.SqDist(zi, zj))
			if dist < p.P[i] {
				p.P[i] = dist
				p.I[i] = j
			}
		}
	}
	return p
}

func randomSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64()
		out[i] = v
	}
	return out
}

func profilesClose(t *testing.T, got, want *Profile, tol float64) {
	t.Helper()
	if len(got.P) != len(want.P) {
		t.Fatalf("profile length %d, want %d", len(got.P), len(want.P))
	}
	for i := range got.P {
		gi, wi := got.P[i], want.P[i]
		if math.IsInf(gi, 1) != math.IsInf(wi, 1) {
			t.Fatalf("P[%d]: got %v want %v", i, gi, wi)
		}
		if math.IsInf(gi, 1) {
			continue
		}
		if !ts.ApproxEqual(gi, wi, tol) {
			t.Fatalf("P[%d]: got %v want %v", i, gi, wi)
		}
	}
}

func TestSelfJoinMatchesNaive(t *testing.T) {
	for _, n := range []int{30, 64, 127} {
		for _, w := range []int{4, 8, 16} {
			series := randomSeries(n, int64(n*w))
			got := selfJoin(t, series, w, nil, 1)
			want := naiveSelfJoin(series, w, nil)
			profilesClose(t, got, want, 1e-6)
		}
	}
}

func TestSelfJoinMasked(t *testing.T) {
	series := randomSeries(80, 5)
	w := 8
	valid := make([]bool, len(series)-w+1)
	for i := range valid {
		valid[i] = i%3 != 0 // arbitrary mask
	}
	got := selfJoin(t, series, w, valid, 1)
	want := naiveSelfJoin(series, w, valid)
	profilesClose(t, got, want, 1e-6)
	for i := range valid {
		if !valid[i] && !math.IsInf(got.P[i], 1) {
			t.Fatalf("masked position %d got finite value %v", i, got.P[i])
		}
	}
}

func TestSelfJoinFindsPlantedMotif(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	series := make([]float64, 300)
	for i := range series {
		series[i] = rng.NormFloat64() * 0.2
	}
	// Plant the same distinctive pattern at two distant locations.
	pattern := []float64{0, 2, 4, 2, 0, -2, -4, -2, 0, 2, 4, 2, 0, -2, -4, -2}
	copy(series[40:], pattern)
	copy(series[200:], pattern)
	p := selfJoin(t, series, len(pattern), nil, 1)
	idx, v := p.MinIndex()
	if v > 0.2 {
		t.Fatalf("motif distance too large: %v", v)
	}
	if !(near(idx, 40, 2) || near(idx, 200, 2)) {
		t.Fatalf("motif found at %d, want near 40 or 200", idx)
	}
	if !(near(p.I[idx], 40, 2) || near(p.I[idx], 200, 2)) || near(p.I[idx], idx, 2) {
		t.Fatalf("motif neighbour at %d (motif at %d)", p.I[idx], idx)
	}
}

func near(x, target, tol int) bool {
	d := x - target
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestSelfJoinDegenerate(t *testing.T) {
	p := selfJoin(t, []float64{1, 2}, 5, nil, 1)
	if p.Len() != 0 {
		t.Fatalf("window > series should yield empty profile, got %d", p.Len())
	}
	idx, v := p.MinIndex()
	if idx != -1 || !math.IsInf(v, 1) {
		t.Fatalf("MinIndex on empty profile = %d,%v", idx, v)
	}
	idx, v = p.MaxIndex()
	if idx != -1 || !math.IsInf(v, -1) {
		t.Fatalf("MaxIndex on empty profile = %d,%v", idx, v)
	}
}

func TestABJoinMatchesNaive(t *testing.T) {
	a := randomSeries(70, 1)
	b := randomSeries(90, 2)
	for _, w := range []int{5, 12} {
		got := abJoin(t, a, b, w, nil, nil, 1)
		want := naiveABJoin(a, b, w, nil, nil)
		profilesClose(t, got, want, 1e-6)
	}
}

func TestABJoinMasked(t *testing.T) {
	a := randomSeries(60, 3)
	b := randomSeries(60, 4)
	w := 6
	va := make([]bool, len(a)-w+1)
	vb := make([]bool, len(b)-w+1)
	for i := range va {
		va[i] = i%2 == 0
	}
	for i := range vb {
		vb[i] = i%4 != 1
	}
	got := abJoin(t, a, b, w, va, vb, 1)
	want := naiveABJoin(a, b, w, va, vb)
	profilesClose(t, got, want, 1e-6)
}

func TestABJoinSharedPatternHasZeroDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := make([]float64, 150)
	b := make([]float64, 150)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	pattern := []float64{1, 5, 9, 5, 1, -3, -7, -3}
	copy(a[30:], pattern)
	copy(b[100:], pattern)
	p := abJoin(t, a, b, len(pattern), nil, nil, 1)
	if p.P[30] > 1e-6 {
		t.Fatalf("shared pattern distance = %v, want ~0", p.P[30])
	}
	if p.I[30] != 100 {
		t.Fatalf("neighbour index = %d, want 100", p.I[30])
	}
}

func TestDiff(t *testing.T) {
	a := &Profile{P: []float64{1, 5, math.Inf(1)}}
	b := &Profile{P: []float64{4, 2}}
	d := Diff(a, b)
	if len(d) != 2 {
		t.Fatalf("diff len = %d", len(d))
	}
	if d[0] != 3 || d[1] != 3 {
		t.Fatalf("diff = %v", d)
	}
	// Infinite entries map to -Inf.
	d = Diff(a, &Profile{P: []float64{0, 0, 0}})
	if !math.IsInf(d[2], -1) {
		t.Fatalf("inf diff = %v", d[2])
	}
}

func TestTopKExclusion(t *testing.T) {
	p := &Profile{P: []float64{9, 1, 1.1, 8, 0.5, 7, 0.6}, W: 4}
	top := p.TopK(3, false, 1)
	if len(top) != 3 {
		t.Fatalf("topk len = %d (%v)", len(top), top)
	}
	// 4 (0.5) is smallest; 6 (0.6) is within excl=1? |6-4|=2 > 1, so allowed;
	// then 1 (1.0).
	if top[0] != 4 || top[1] != 6 || top[2] != 1 {
		t.Fatalf("topk = %v, want [4 6 1]", top)
	}
	// Largest mode.
	top = p.TopK(2, true, 1)
	if top[0] != 0 || top[1] != 3 {
		t.Fatalf("topk largest = %v, want [0 3]", top)
	}
	// Exhaustion: huge exclusion zone limits the count.
	top = p.TopK(5, false, 100)
	if len(top) != 1 {
		t.Fatalf("exhausted topk = %v", top)
	}
}

// BenchmarkSelfJoin measures the diagonal-tiled STOMP kernel across series
// lengths, windows, and worker counts.  Speedups over workers=1 require as
// many CPUs as workers (compare with runtime.GOMAXPROCS); determinism does
// not — every cell is byte-identical regardless (TestSelfJoinPropertyWorkers).
// The CI scaling gate reads the eight N=16384 cells.
func TestTopMotifsAndDiscords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Near-periodic background: every window has a close neighbour one
	// period away, so nearest-neighbour distances are small by default.
	series := make([]float64, 300)
	for i := range series {
		series[i] = math.Sin(float64(i)/5) + 0.05*rng.NormFloat64()
	}
	motif := []float64{0, 3, 6, 3, 0, -3, -6, -3}
	copy(series[50:], motif)
	copy(series[200:], motif)
	// A one-off irregular segment is the discord: its shape (not its
	// amplitude — z-normalisation removes that) occurs nowhere else.
	discordShape := []float64{0, 4, -3, 5, -4, 2, -5, 3}
	copy(series[120:], discordShape)
	p := selfJoin(t, series, len(motif), nil, 1)
	motifs := p.TopMotifs(1)
	if len(motifs) != 1 {
		t.Fatalf("motifs = %v", motifs)
	}
	a, b := motifs[0][0], motifs[0][1]
	if !(near(a, 50, 2) || near(a, 200, 2)) || !(near(b, 50, 2) || near(b, 200, 2)) {
		t.Fatalf("motif pair = (%d,%d), want near 50/200", a, b)
	}
	discords := p.TopDiscords(1)
	if len(discords) != 1 || !near(discords[0], 120, 10) {
		t.Fatalf("discords = %v, want near 120", discords)
	}
}

func BenchmarkSelfJoin(b *testing.B) {
	for _, size := range [][2]int{{1000, 50}, {4096, 128}, {16384, 64}, {16384, 256}} {
		n, w := size[0], size[1]
		series := randomSeries(n, 1)
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("N=%dxw=%d/workers=%d", n, w, workers)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					selfJoin(b, series, w, nil, workers)
				}
			})
		}
	}
}
