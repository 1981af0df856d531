package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return ApproxEqual(a, b, tol)
}

func TestSeriesClone(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatalf("clone aliases original: %v", s)
	}
}

func TestSubsequence(t *testing.T) {
	s := Series{0, 1, 2, 3, 4}
	sub := s.Subsequence(1, 4)
	want := Series{1, 2, 3}
	if len(sub) != len(want) {
		t.Fatalf("len = %d, want %d", len(sub), len(want))
	}
	for i := range want {
		if sub[i] != want[i] {
			t.Fatalf("sub[%d] = %v, want %v", i, sub[i], want[i])
		}
	}
}

func TestDatasetClassesAndByClass(t *testing.T) {
	d := &Dataset{Instances: []Instance{
		{Values: Series{1}, Label: 2},
		{Values: Series{2}, Label: 0},
		{Values: Series{3}, Label: 2},
	}}
	got := d.Classes()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Classes = %v, want [0 2]", got)
	}
	by := d.ByClass()
	if len(by[2]) != 2 || len(by[0]) != 1 {
		t.Fatalf("ByClass sizes wrong: %v", by)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.SeriesLen() != 1 {
		t.Fatalf("SeriesLen = %d", d.SeriesLen())
	}
}

func TestDatasetValidate(t *testing.T) {
	empty := &Dataset{}
	if err := empty.Validate(false); err == nil {
		t.Fatal("empty dataset should not validate")
	}
	bad := &Dataset{Instances: []Instance{{Values: Series{math.NaN()}, Label: 0}}}
	if err := bad.Validate(false); err == nil {
		t.Fatal("NaN dataset should not validate")
	}
	oneClass := &Dataset{Instances: []Instance{{Values: Series{1}, Label: 0}}}
	if err := oneClass.Validate(true); err == nil {
		t.Fatal("one-class dataset should fail two-class validation")
	}
	if err := oneClass.Validate(false); err != nil {
		t.Fatalf("one-class dataset should pass relaxed validation: %v", err)
	}
}

func TestConcatenate(t *testing.T) {
	got := Concatenate([]Series{{1, 2}, {3}, {4, 5}})
	want := Series{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concatenate = %v, want %v", got, want)
		}
	}
}

func TestConcatenateInstancesAndBoundaryMask(t *testing.T) {
	ins := []Instance{
		{Values: Series{1, 2, 3}},
		{Values: Series{4, 5, 6, 7}},
	}
	cat, starts := ConcatenateInstances(ins)
	if len(cat) != 7 || starts[0] != 0 || starts[1] != 3 {
		t.Fatalf("cat=%v starts=%v", cat, starts)
	}
	valid := BoundaryMask(starts, len(cat), 3)
	// windows: [0..2] ok, [1..3] spans, [2..4] spans, [3..5] ok, [4..6] ok
	want := []bool{true, false, false, true, true}
	if len(valid) != len(want) {
		t.Fatalf("mask len = %d, want %d", len(valid), len(want))
	}
	for i := range want {
		if valid[i] != want[i] {
			t.Fatalf("mask[%d] = %v, want %v (%v)", i, valid[i], want[i], valid)
		}
	}
}

func TestBoundaryMaskDegenerate(t *testing.T) {
	if m := BoundaryMask([]int{0}, 2, 5); m != nil {
		t.Fatalf("window longer than series should give nil mask, got %v", m)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ins := make([]Instance, 10)
	for i := range ins {
		ins[i] = Instance{Values: Series{float64(i)}}
	}
	got := Sample(ins, 4, rng)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[float64]bool{}
	for _, in := range got {
		if seen[in.Values[0]] {
			t.Fatalf("duplicate sample %v", in.Values[0])
		}
		seen[in.Values[0]] = true
	}
	// Requesting more than available returns everything.
	all := Sample(ins, 99, rng)
	if len(all) != 10 {
		t.Fatalf("oversized sample len = %d", len(all))
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(m, 5, 1e-12) || !almostEqual(s, 2, 1e-12) {
		t.Fatalf("mean=%v std=%v, want 5, 2", m, s)
	}
	m, s = MeanStd(nil)
	if m != 0 || s != 0 {
		t.Fatalf("empty MeanStd = %v,%v", m, s)
	}
}

func TestZNorm(t *testing.T) {
	z := ZNorm([]float64{1, 2, 3, 4, 5})
	m, s := MeanStd(z)
	if !almostEqual(m, 0, 1e-12) || !almostEqual(s, 1, 1e-12) {
		t.Fatalf("znorm mean=%v std=%v", m, s)
	}
	// Constant series maps to zeros, not NaN.
	z = ZNorm([]float64{3, 3, 3})
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant znorm = %v", z)
		}
	}
}

func TestMovingMeanStdMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tseries := make([]float64, 100)
	for i := range tseries {
		tseries[i] = rng.NormFloat64() * 10
	}
	w := 12
	means, stds := MovingMeanStd(tseries, w)
	for i := range means {
		m, s := MeanStd(tseries[i : i+w])
		if !almostEqual(means[i], m, 1e-8) || !almostEqual(stds[i], s, 1e-8) {
			t.Fatalf("window %d: got (%v,%v) want (%v,%v)", i, means[i], stds[i], m, s)
		}
	}
}

func TestMovingMeanStdDegenerate(t *testing.T) {
	m, s := MovingMeanStd([]float64{1, 2}, 5)
	if m != nil || s != nil {
		t.Fatal("window larger than series should return nil")
	}
}

func TestSlidingDots(t *testing.T) {
	q := []float64{1, 2}
	tt := []float64{1, 2, 3, 4}
	got := SlidingDots(q, tt)
	want := []float64{5, 8, 11} // 1*1+2*2, 1*2+2*3, 1*3+2*4
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("dots = %v, want %v", got, want)
		}
	}
}

func TestDistDef4(t *testing.T) {
	p := []float64{1, 2}
	q := []float64{5, 1, 2, 9}
	// best alignment at j=1 with zero distance
	if d := Dist(p, q); !almostEqual(d, 0, 1e-12) {
		t.Fatalf("Dist = %v, want 0", d)
	}
	// order independence
	if d := Dist(q, p); !almostEqual(d, 0, 1e-12) {
		t.Fatalf("swapped Dist = %v, want 0", d)
	}
	// hand-computed: p=[0,0] against q=[1,2,3]: alignments give (1+4)/2, (4+9)/2 → 2.5
	if d := Dist([]float64{0, 0}, []float64{1, 2, 3}); !almostEqual(d, 2.5, 1e-12) {
		t.Fatalf("Dist = %v, want 2.5", d)
	}
}

// Property: Dist is non-negative and zero when the query occurs verbatim.
func TestDistProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		m := 2 + rng.Intn(n-2)
		tt := make([]float64, n)
		for i := range tt {
			tt[i] = rng.NormFloat64()
		}
		j := rng.Intn(n - m + 1)
		q := make([]float64, m)
		copy(q, tt[j:j+m])
		d := Dist(q, tt)
		return d >= 0 && d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZNormSqDistFromStats(t *testing.T) {
	a := []float64{1, 3, 2, 5, 4, 6, 2, 1}
	b := []float64{2, 1, 4, 3, 6, 5, 1, 2}
	w := len(a)
	qt := Dot(a, b)
	ma, sa := MeanStd(a)
	mb, sb := MeanStd(b)
	got := ZNormSqDistFromStats(qt, w, ma, sa, mb, sb)
	want := SqDist(ZNorm(a), ZNorm(b))
	if !almostEqual(got, want, 1e-8) {
		t.Fatalf("got %v want %v", got, want)
	}
	// constant vs constant
	if d := ZNormSqDistFromStats(0, 4, 1, 0, 2, 0); d != 0 {
		t.Fatalf("const/const = %v", d)
	}
	// constant vs varying
	if d := ZNormSqDistFromStats(0, 4, 1, 0, 2, 1); d != 8 {
		t.Fatalf("const/vary = %v, want 2w=8", d)
	}
}

func TestDTWBasics(t *testing.T) {
	a := []float64{1, 2, 3}
	if d := DTW(a, a, -1); d != 0 {
		t.Fatalf("self DTW = %v", d)
	}
	// DTW of [0,0,1] and [0,1] warps to zero extra cost beyond alignment.
	d := DTW([]float64{0, 0, 1}, []float64{0, 1}, -1)
	if d != 0 {
		t.Fatalf("warpable DTW = %v, want 0", d)
	}
	// DTW is at most Euclidean distance on equal lengths.
	b := []float64{2, 2, 2}
	if DTW(a, b, -1) > EuclideanDist(a, b)+1e-12 {
		t.Fatal("DTW exceeds ED")
	}
	// Degenerate inputs.
	if !math.IsInf(DTW(nil, a, -1), 1) {
		t.Fatal("empty DTW should be +Inf")
	}
}

func TestDTWBandWidening(t *testing.T) {
	// Band narrower than the length difference must be widened internally,
	// never producing +Inf for non-empty inputs.
	a := make([]float64, 20)
	b := make([]float64, 5)
	if d := DTW(a, b, 0); math.IsInf(d, 1) {
		t.Fatal("band should be widened to |n-m|")
	}
}

func TestDTWWindowMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	prev := math.Inf(1)
	for _, w := range []int{0, 2, 5, 10, 30} {
		d := DTW(a, b, w)
		if d > prev+1e-9 {
			t.Fatalf("DTW should not increase with window: w=%d d=%v prev=%v", w, d, prev)
		}
		prev = d
	}
	// Unconstrained equals full window.
	if !almostEqual(DTW(a, b, -1), DTW(a, b, 30), 1e-12) {
		t.Fatal("unconstrained != full window")
	}
}

func TestSqDistEuclidean(t *testing.T) {
	a := []float64{0, 3}
	b := []float64{4, 0}
	if !almostEqual(SqDist(a, b), 25, 1e-12) {
		t.Fatalf("SqDist = %v", SqDist(a, b))
	}
	if !almostEqual(EuclideanDist(a, b), 5, 1e-12) {
		t.Fatalf("EuclideanDist = %v", EuclideanDist(a, b))
	}
}
