package mp

import (
	"math"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// naiveZNormProfile is the O(N·L) oracle for MASS.
func naiveZNormProfile(q, t []float64) []float64 {
	m := len(q)
	n := len(t) - m + 1
	if n <= 0 {
		return nil
	}
	zq := ts.ZNorm(q)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		zw := ts.ZNorm(t[i : i+m])
		out[i] = math.Sqrt(ts.SqDist(zq, zw))
	}
	return out
}

func TestMASSMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, n int }{{8, 50}, {16, 300}, {32, 33}} {
		q := make([]float64, tc.m)
		series := make([]float64, tc.n)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		v := 0.0
		for i := range series {
			v += rng.NormFloat64()
			series[i] = v
		}
		got := MASS(q, series)
		want := naiveZNormProfile(q, series)
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for i := range want {
			if !ts.ApproxEqual(got[i], want[i], 1e-6) {
				t.Fatalf("m=%d profile[%d]: %v vs %v", tc.m, i, got[i], want[i])
			}
		}
	}
}

func TestMASSDegenerate(t *testing.T) {
	if MASS([]float64{1, 2, 3}, []float64{1}) != nil {
		t.Fatal("query longer than series should give nil")
	}
	if MASS(nil, []float64{1, 2}) != nil {
		t.Fatal("empty query should give nil")
	}
}

func TestBestMatchFindsPlantedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series := make([]float64, 400)
	for i := range series {
		series[i] = rng.NormFloat64() * 0.3
	}
	q := []float64{0, 2, 4, 6, 4, 2, 0, -2, -4, -2}
	copy(series[123:], q)
	at, dist := BestMatch(q, series)
	if at != 123 {
		t.Fatalf("best match at %d, want 123", at)
	}
	if dist > 1e-6 {
		t.Fatalf("planted match distance = %v", dist)
	}
	at, dist = BestMatch(q, []float64{1})
	if at != -1 || !math.IsInf(dist, 1) {
		t.Fatalf("degenerate BestMatch = %d,%v", at, dist)
	}
}

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

func BenchmarkMASS(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q := make([]float64, 100)
	series := make([]float64, 10000)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MASS(q, series)
	}
}
