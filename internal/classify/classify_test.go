package classify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

func TestTransformDimensions(t *testing.T) {
	d := &ts.Dataset{Instances: []ts.Instance{
		{Values: ts.Series{1, 2, 3, 4, 5}, Label: 0},
		{Values: ts.Series{5, 4, 3, 2, 1}, Label: 1},
	}}
	sh := []Shapelet{
		{Class: 0, Values: ts.Series{1, 2}},
		{Class: 1, Values: ts.Series{5, 4}},
		{Class: 0, Values: ts.Series{3}},
	}
	X := mustTransform(t, d, sh, TransformConfig{})
	if len(X) != 2 || len(X[0]) != 3 {
		t.Fatalf("transform shape = %dx%d", len(X), len(X[0]))
	}
	// Instance 0 contains shapelet 0 verbatim → distance 0.
	if X[0][0] > 1e-12 {
		t.Fatalf("X[0][0] = %v", X[0][0])
	}
	// Instance 1 contains shapelet 1 verbatim → distance 0.
	if X[1][1] > 1e-12 {
		t.Fatalf("X[1][1] = %v", X[1][1])
	}
}

func TestTransformWorkersEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := &ts.Dataset{}
	for i := 0; i < 20; i++ {
		vals := make(ts.Series, 50)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		d.Instances = append(d.Instances, ts.Instance{Values: vals, Label: i % 2})
	}
	sh := []Shapelet{
		{Class: 0, Values: d.Instances[0].Values[5:15].Clone()},
		{Class: 1, Values: d.Instances[1].Values[20:28].Clone()},
	}
	seq := mustTransform(t, d, sh, TransformConfig{})
	for _, workers := range []int{2, 4, 8} {
		par := mustTransform(t, d, sh, TransformConfig{Workers: workers})
		for i := range seq {
			for j := range seq[i] {
				if seq[i][j] != par[i][j] {
					t.Fatalf("workers=%d transform differs at %d,%d", workers, i, j)
				}
			}
		}
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 20}, {5, 30}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	Z := s.Apply(X)
	for col := 0; col < 2; col++ {
		var mean float64
		for _, row := range Z {
			mean += row[col]
		}
		mean /= float64(len(Z))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean = %v", col, mean)
		}
	}
	// Constant column gets std 1, not a divide-by-zero.
	s, err = FitScaler([][]float64{{7}, {7}})
	if err != nil {
		t.Fatal(err)
	}
	Z = s.Apply([][]float64{{7}})
	if Z[0][0] != 0 {
		t.Fatalf("constant column scaled to %v", Z[0][0])
	}
	if _, err := FitScaler(nil); err == nil {
		t.Fatal("empty matrix should error")
	}
}

func TestAccuracy(t *testing.T) {
	if a := Accuracy([]int{1, 1, 0, 0}, []int{1, 0, 0, 0}); a != 75 {
		t.Fatalf("accuracy = %v", a)
	}
	if a := Accuracy(nil, nil); a != 0 {
		t.Fatalf("empty accuracy = %v", a)
	}
	if a := Accuracy([]int{1}, []int{1, 2}); a != 0 {
		t.Fatalf("mismatched accuracy = %v", a)
	}
}

func separableData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, 0, 2*n)
	y := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		X = append(X, []float64{2 + rng.NormFloat64()*0.3, 2 + rng.NormFloat64()*0.3})
		y = append(y, 1)
		X = append(X, []float64{-2 + rng.NormFloat64()*0.3, -2 + rng.NormFloat64()*0.3})
		y = append(y, 0)
	}
	return X, y
}

func TestSVMSeparable(t *testing.T) {
	X, y := separableData(50, 1)
	m, err := TrainSVMCtx(context.Background(), X, y, SVMConfig{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictAll(X)
	if a := Accuracy(pred, y); a < 99 {
		t.Fatalf("separable accuracy = %v", a)
	}
	// Decision values align with Classes ordering.
	dec := m.Decision([]float64{2, 2})
	if len(dec) != 2 {
		t.Fatalf("decision len = %d", len(dec))
	}
	if dec[1] <= dec[0] { // class 1 lives at (2,2)
		t.Fatalf("decision values = %v", dec)
	}
}

func TestSVMThreeClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []int
	centers := [][2]float64{{0, 4}, {4, -2}, {-4, -2}}
	for c, ctr := range centers {
		for i := 0; i < 60; i++ {
			X = append(X, []float64{ctr[0] + rng.NormFloat64()*0.4, ctr[1] + rng.NormFloat64()*0.4})
			y = append(y, c)
		}
	}
	m, err := TrainSVMCtx(context.Background(), X, y, SVMConfig{Seed: 4, Epochs: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a := Accuracy(m.PredictAll(X), y); a < 97 {
		t.Fatalf("3-class accuracy = %v", a)
	}
}

func TestSVMErrors(t *testing.T) {
	if _, err := TrainSVMCtx(context.Background(), nil, nil, SVMConfig{}, nil); err == nil {
		t.Fatal("empty training should error")
	}
	if _, err := TrainSVMCtx(context.Background(), [][]float64{{1}}, []int{0}, SVMConfig{}, nil); err == nil {
		t.Fatal("single class should error")
	}
	if _, err := TrainSVMCtx(context.Background(), [][]float64{{1}}, []int{0, 1}, SVMConfig{}, nil); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestSVMDeterministic(t *testing.T) {
	X, y := separableData(30, 5)
	m1, _ := TrainSVMCtx(context.Background(), X, y, SVMConfig{Seed: 6}, nil)
	m2, _ := TrainSVMCtx(context.Background(), X, y, SVMConfig{Seed: 6}, nil)
	for ci := range m1.W {
		if m1.B[ci] != m2.B[ci] {
			t.Fatal("same seed should give identical models")
		}
		for j := range m1.W[ci] {
			if m1.W[ci][j] != m2.W[ci][j] {
				t.Fatal("same seed should give identical weights")
			}
		}
	}
}

func nnDataset(seed int64) (train, test []ts.Instance) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(label int, phase float64) ts.Instance {
		vals := make(ts.Series, 40)
		for i := range vals {
			vals[i] = math.Sin(float64(i)/4+phase) + 0.1*rng.NormFloat64()
			if label == 1 {
				vals[i] = math.Abs(vals[i]) // rectified: different shape
			}
		}
		return ts.Instance{Values: vals, Label: label}
	}
	for i := 0; i < 20; i++ {
		train = append(train, mk(0, 0), mk(1, 0))
		test = append(test, mk(0, 0.1), mk(1, 0.1))
	}
	return train, test
}

func TestNNEuclidean(t *testing.T) {
	train, test := nnDataset(7)
	acc := EvaluateNN(train, test, NNConfig{Metric: Euclidean})
	if acc < 90 {
		t.Fatalf("1NN-ED accuracy = %v", acc)
	}
}

func TestNNDTW(t *testing.T) {
	train, test := nnDataset(8)
	acc := EvaluateNN(train, test, NNConfig{Metric: DTWFull})
	if acc < 90 {
		t.Fatalf("1NN-DTW accuracy = %v", acc)
	}
	accW := EvaluateNN(train, test, NNConfig{Metric: DTWWindowed})
	if accW < 90 {
		t.Fatalf("1NN-DTW(w) accuracy = %v", accW)
	}
}

func TestNNDTWHandlesWarping(t *testing.T) {
	// Two classes distinguished by a pattern that shifts in time: DTW should
	// classify perfectly, plain ED may not.
	rng := rand.New(rand.NewSource(9))
	mk := func(label, shift int) ts.Instance {
		vals := make(ts.Series, 50)
		for i := range vals {
			vals[i] = 0.05 * rng.NormFloat64()
		}
		pattern := []float64{0, 2, 4, 2, 0}
		if label == 1 {
			pattern = []float64{0, -2, -4, -2, 0}
		}
		copy(vals[10+shift:], pattern)
		return ts.Instance{Values: vals, Label: label}
	}
	var train, test []ts.Instance
	for i := 0; i < 10; i++ {
		train = append(train, mk(0, i), mk(1, i))
		test = append(test, mk(0, i+15), mk(1, i+15))
	}
	acc := EvaluateNN(train, test, NNConfig{Metric: DTWFull})
	if acc < 95 {
		t.Fatalf("DTW warped accuracy = %v", acc)
	}
}

func TestNNPredictEmptyTrain(t *testing.T) {
	nn := NewNN(nil, NNConfig{})
	if got := nn.Predict(ts.Series{1, 2, 3}); got != -1 {
		t.Fatalf("empty train predict = %d, want -1", got)
	}
}
