package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ips/internal/ts"
)

func approx(a, b, tol float64) bool { return ts.ApproxEqual(a, b, tol) }

func TestRegularizedGammaP(t *testing.T) {
	// P(1, x) = 1 − e^{−x}
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := RegularizedGammaP(1, x); !approx(got, want, 1e-10) {
			t.Fatalf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(a, 0) = 0; monotone in x.
	if RegularizedGammaP(3, 0) != 0 {
		t.Fatal("P(a,0) != 0")
	}
	prev := 0.0
	for x := 0.5; x < 20; x += 0.5 {
		v := RegularizedGammaP(3, x)
		if v < prev-1e-12 {
			t.Fatalf("P(3,x) not monotone at %v", x)
		}
		prev = v
	}
	if !approx(prev, 1, 1e-6) {
		t.Fatalf("P(3,20) = %v, want ~1", prev)
	}
	if !math.IsNaN(RegularizedGammaP(-1, 1)) || !math.IsNaN(RegularizedGammaP(1, -1)) {
		t.Fatal("invalid domain should return NaN")
	}
}

func TestChiSquareCDF(t *testing.T) {
	// Known value: chi-square with 2 df is Exp(1/2): CDF(x) = 1 − e^{−x/2}.
	for _, x := range []float64{0.5, 1, 3, 6} {
		want := 1 - math.Exp(-x/2)
		if got := ChiSquareCDF(x, 2); !approx(got, want, 1e-9) {
			t.Fatalf("chi2(%v,2) = %v, want %v", x, got, want)
		}
	}
	// Median of chi-square with 1 df is ~0.4549.
	if got := ChiSquareCDF(0.4549, 1); !approx(got, 0.5, 1e-3) {
		t.Fatalf("chi2 median check = %v", got)
	}
	if ChiSquareCDF(-1, 3) != 0 {
		t.Fatal("negative x should give 0")
	}
}

func TestNormalCDF(t *testing.T) {
	if !approx(NormalCDF(0), 0.5, 1e-12) {
		t.Fatal("Φ(0) != 0.5")
	}
	if !approx(NormalCDF(1.959964), 0.975, 1e-5) {
		t.Fatalf("Φ(1.96) = %v", NormalCDF(1.959964))
	}
	if !approx(NormalCDF(-1.959964), 0.025, 1e-5) {
		t.Fatalf("Φ(-1.96) = %v", NormalCDF(-1.959964))
	}
}

func TestChebyshevBound(t *testing.T) {
	if !approx(ChebyshevBound(3), 1-1.0/9, 1e-12) {
		t.Fatalf("3σ bound = %v", ChebyshevBound(3))
	}
	if ChebyshevBound(0) != 0 || ChebyshevBound(-1) != 0 {
		t.Fatal("non-positive z should give 0")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range h.Counts {
		if c != 2 {
			t.Fatalf("counts = %v, want uniform 2s", h.Counts)
		}
	}
	// Density integrates to 1.
	var total float64
	for _, d := range h.Density {
		total += d * h.Width
	}
	if !approx(total, 1, 1e-12) {
		t.Fatalf("density integral = %v", total)
	}
	if _, err := NewHistogram(nil, 5); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Fatal("zero bins should error")
	}
	// Constant samples don't divide by zero.
	h, err = NewHistogram([]float64{2, 2, 2}, 3)
	if err != nil || h.Width <= 0 {
		t.Fatalf("constant samples: %v %v", h, err)
	}
}

func TestNormalFitAndPDF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 3 + 2*rng.NormFloat64()
	}
	d := FitNormal(xs)
	if !approx(d.Mu, 3, 0.1) || !approx(d.Sigma, 2, 0.1) {
		t.Fatalf("fit = %+v", d)
	}
	// PDF peak at mean.
	if d.PDF(3) < d.PDF(4) || d.PDF(3) < d.PDF(2) {
		t.Fatal("PDF not peaked at mean")
	}
	if !approx(d.CDF(d.Mu), 0.5, 1e-9) {
		t.Fatalf("CDF(mean) = %v", d.CDF(d.Mu))
	}
	if !approx(d.Mean(), d.Mu, 1e-12) || !approx(d.Std(), d.Sigma, 1e-12) {
		t.Fatal("Mean/Std accessors wrong")
	}
}

func TestGammaFit(t *testing.T) {
	// Generate gamma(k=4, θ=2) samples via sum of exponentials.
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 20000)
	for i := range xs {
		v := 0.0
		for j := 0; j < 4; j++ {
			v += -2 * math.Log(rng.Float64())
		}
		xs[i] = v
	}
	d := FitGamma(xs)
	if d.Flip {
		t.Fatal("positively skewed data should not flip")
	}
	// Moments should approximately match: mean 8, std 4.
	if !approx(d.Mean(), 8, 0.5) || !approx(d.Std(), 4, 0.5) {
		t.Fatalf("gamma moments: mean=%v std=%v", d.Mean(), d.Std())
	}
	// CDF is monotone 0→1.
	if d.CDF(-100) != 0 && d.CDF(-100) > 1e-9 {
		t.Fatalf("CDF(-100) = %v", d.CDF(-100))
	}
	if !approx(d.CDF(1e6), 1, 1e-6) {
		t.Fatalf("CDF(+big) = %v", d.CDF(1e6))
	}
	// Flipped fit mirrors correctly.
	neg := make([]float64, len(xs))
	for i, v := range xs {
		neg[i] = -v
	}
	fd := FitGamma(neg)
	if !fd.Flip {
		t.Fatal("negatively skewed data should flip")
	}
	if !approx(fd.Mean(), -8, 0.5) {
		t.Fatalf("flipped mean = %v", fd.Mean())
	}
	if !approx(fd.CDF(-8), 1-d.CDF(8), 0.02) {
		t.Fatalf("flipped CDF inconsistent: %v vs %v", fd.CDF(-8), 1-d.CDF(8))
	}
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{0.9, 0.7, 0.9, 0.5})
	// 0.9s tie for ranks 1,2 → 1.5 each; 0.7 → 3; 0.5 → 4
	want := []float64{1.5, 3, 1.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestFriedman(t *testing.T) {
	// Method 0 always best, method 2 always worst — should be significant.
	scores := [][]float64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		base := rng.Float64()
		scores = append(scores, []float64{base + 0.2, base + 0.1, base})
	}
	res, err := Friedman(scores)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.001 {
		t.Fatalf("p = %v, want tiny", res.PValue)
	}
	if !(res.AvgRanks[0] < res.AvgRanks[1] && res.AvgRanks[1] < res.AvgRanks[2]) {
		t.Fatalf("avg ranks = %v", res.AvgRanks)
	}
	if !approx(res.AvgRanks[0], 1, 1e-12) {
		t.Fatalf("dominant method should have rank 1, got %v", res.AvgRanks[0])
	}

	// Identical methods: statistic ~0, p ~1 (ties give each rank 2).
	same := [][]float64{{1, 1, 1}, {2, 2, 2}}
	res, err = Friedman(same)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.9 {
		t.Fatalf("identical methods p = %v", res.PValue)
	}

	if _, err := Friedman(nil); err == nil {
		t.Fatal("empty matrix should error")
	}
	if _, err := Friedman([][]float64{{1}}); err == nil {
		t.Fatal("single method should error")
	}
	if _, err := Friedman([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged matrix should error")
	}
}

func TestWilcoxon(t *testing.T) {
	// Strongly separated pairs: significant.
	a := []float64{}
	b := []float64{}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		v := rng.Float64()
		a = append(a, v+0.5+0.01*rng.Float64())
		b = append(b, v)
	}
	_, p, err := WilcoxonSignedRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.001 {
		t.Fatalf("separated pairs p = %v", p)
	}
	// Identical: p = 1.
	_, p, err = WilcoxonSignedRank(a, a)
	if err != nil || p != 1 {
		t.Fatalf("identical pairs p = %v err = %v", p, err)
	}
	// Symmetric noise: not significant.
	c := make([]float64, 60)
	d := make([]float64, 60)
	for i := range c {
		c[i] = rng.NormFloat64()
		d[i] = rng.NormFloat64()
	}
	_, p, err = WilcoxonSignedRank(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Fatalf("noise pairs p = %v, should not be significant", p)
	}
	if _, _, err := WilcoxonSignedRank([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestHolmCorrection(t *testing.T) {
	ps := []float64{0.001, 0.02, 0.04, 0.9}
	rej := HolmCorrection(ps, 0.05)
	// m=4: 0.001 <= 0.05/4 ✓; 0.02 <= 0.05/3 ≈ 0.0167? No → stop.
	want := []bool{true, false, false, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Fatalf("holm = %v, want %v", rej, want)
		}
	}
	ps = []float64{0.001, 0.01, 0.012, 0.04}
	rej = HolmCorrection(ps, 0.05)
	// 0.001<=0.0125 ✓; 0.01<=0.0167 ✓; 0.012<=0.025 ✓; 0.04<=0.05 ✓
	for i, r := range rej {
		if !r {
			t.Fatalf("all should be rejected, got %v at %d", rej, i)
		}
	}
}

func TestNemenyiCD(t *testing.T) {
	// Demšar's example scale: k=13, n=46 (the paper's Fig. 11 setting).
	cd, err := NemenyiCD(13, 46)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.313 * math.Sqrt(13.0*14.0/(6*46)) // ≈ 2.69
	if !approx(cd, want, 1e-9) {
		t.Fatalf("CD = %v, want %v", cd, want)
	}
	if _, err := NemenyiCD(25, 10); err == nil {
		t.Fatal("k out of table should error")
	}
}

func TestMoments(t *testing.T) {
	m, s, g := Moments([]float64{1, 2, 3, 4, 5})
	if !approx(m, 3, 1e-12) || !approx(s, math.Sqrt(2), 1e-12) || !approx(g, 0, 1e-12) {
		t.Fatalf("moments = %v %v %v", m, s, g)
	}
	m, s, g = Moments(nil)
	if m != 0 || s != 0 || g != 0 {
		t.Fatal("empty moments should be zero")
	}
}

// Property: histogram density always integrates to 1 and NMSE is
// non-negative for any fitted normal.
func TestHistogramNMSEProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*(1+rng.Float64()*5) + rng.Float64()*10
		}
		h, err := NewHistogram(xs, 10+rng.Intn(20))
		if err != nil {
			return false
		}
		var total float64
		for _, d := range h.Density {
			total += d * h.Width
		}
		if !approx(total, 1, 1e-9) {
			return false
		}
		return h.NMSE(FitNormal(xs)) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
