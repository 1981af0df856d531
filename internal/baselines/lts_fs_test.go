package baselines

import (
	"context"
	"math"
	"testing"

	"ips/internal/classify"
	"ips/internal/ts"
	"ips/internal/ucr"
)

func TestSoftMinDistance(t *testing.T) {
	s := ts.Series{1, 2}
	series := ts.Series{9, 9, 1, 2, 9}
	// Hard minimum is 0 at alignment 2; a sharp alpha should approach it.
	d, grad := softMinDistance(s, series, -100)
	if d > 1e-6 {
		t.Fatalf("sharp softmin = %v, want ~0", d)
	}
	if len(grad) != 2 {
		t.Fatalf("grad len = %d", len(grad))
	}
	// Perfect match gradient is ~0.
	for _, g := range grad {
		if math.Abs(g) > 1e-4 {
			t.Fatalf("perfect match gradient = %v", grad)
		}
	}
	// Degenerate: shapelet longer than series.
	d, grad = softMinDistance(ts.Series{1, 2, 3}, ts.Series{1}, -30)
	if d != 0 || len(grad) != 3 {
		t.Fatal("degenerate softmin should be zero")
	}
}

func TestSoftMinGradientNumerically(t *testing.T) {
	s := ts.Series{0.5, -1.2, 0.3}
	series := ts.Series{0.1, 0.6, -1.0, 0.2, 0.9, -0.3}
	alpha := -10.0
	_, grad := softMinDistance(s, series, alpha)
	const eps = 1e-6
	for l := range s {
		plus := s.Clone()
		minus := s.Clone()
		plus[l] += eps
		minus[l] -= eps
		dp, _ := softMinDistance(plus, series, alpha)
		dm, _ := softMinDistance(minus, series, alpha)
		numeric := (dp - dm) / (2 * eps)
		if math.Abs(numeric-grad[l]) > 1e-4 {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", l, grad[l], numeric)
		}
	}
}

func TestLTSLearnsPlantedPatterns(t *testing.T) {
	train := plantedDataset(12, 60, 2, 20)
	test := plantedDataset(12, 60, 2, 21)
	acc, err := LTSEvaluate(train, test, LTSConfig{K: 3, Iterations: 200, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 75 {
		t.Fatalf("LTS accuracy = %v%%", acc)
	}
}

func TestLTSModelShape(t *testing.T) {
	train := plantedDataset(8, 50, 3, 23)
	m, err := LTSTrain(train, LTSConfig{K: 2, Iterations: 50, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shapelets) != 6 { // 2 per class × 3 classes
		t.Fatalf("shapelets = %d", len(m.Shapelets))
	}
	if len(m.Classes) != 3 || len(m.W) != 3 {
		t.Fatalf("classes = %v", m.Classes)
	}
	if _, err := LTSTrain(&ts.Dataset{}, LTSConfig{}); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestMaskWord(t *testing.T) {
	if got := maskWord("abcd", []int{1, 3}); got != "a*c*" {
		t.Fatalf("masked = %q", got)
	}
	// Out-of-range positions are ignored.
	if got := maskWord("ab", []int{5}); got != "ab" {
		t.Fatalf("masked = %q", got)
	}
}

func TestFastShapeletsDiscover(t *testing.T) {
	train := plantedDataset(10, 60, 2, 25)
	sh, err := FastShapeletsDiscoverCtx(context.Background(), train, FSConfig{K: 3, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	perClass := map[int]int{}
	for _, s := range sh {
		perClass[s.Class]++
		if len(s.Values) == 0 {
			t.Fatal("empty shapelet")
		}
	}
	for c := 0; c < 2; c++ {
		if perClass[c] == 0 || perClass[c] > 3 {
			t.Fatalf("class %d has %d shapelets", c, perClass[c])
		}
	}
	if _, err := FastShapeletsDiscoverCtx(context.Background(), &ts.Dataset{}, FSConfig{}); err == nil {
		t.Fatal("empty dataset should error")
	}
}

// TestFastShapeletsDeterministic pins FS discovery to its seed: tied gap
// scores are broken by the masked word, never by map order.
func TestFastShapeletsDeterministic(t *testing.T) {
	m, err := ucr.Find("ItalyPowerDemand")
	if err != nil {
		t.Fatal(err)
	}
	train, _ := ucr.Generate(m, ucr.GenConfig{MaxTrain: 30, MaxTest: 60, MaxLength: 160, Seed: 1})
	want, err := FastShapeletsDiscoverCtx(context.Background(), train, FSConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 10; run++ {
		got, err := FastShapeletsDiscoverCtx(context.Background(), train, FSConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d shapelets, want %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i].Class != want[i].Class || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
				!ts.ApproxEqualSlice(got[i].Values, want[i].Values, 0) {
				t.Fatalf("run %d: shapelet %d differs: %+v, want %+v", run, i, got[i], want[i])
			}
		}
	}
}

func TestFastShapeletsEvaluate(t *testing.T) {
	train := plantedDataset(10, 60, 2, 27)
	test := plantedDataset(10, 60, 2, 28)
	acc, err := FastShapeletsEvaluateCtx(context.Background(), train, test, FSConfig{K: 5, Seed: 29}, classify.SVMConfig{Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 70 {
		t.Fatalf("fast shapelets accuracy = %v%%", acc)
	}
}
