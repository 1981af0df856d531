package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"ips/internal/classify"
	"ips/internal/errs"
	"ips/internal/ts"
)

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTrainMatchesPrimitives pins Train and Model.Predict, bit for bit, to
// the classify calls perfbench's traced fit replays: TransformWith with the
// default kernel, FitScaler, TrainSVMCtx, and on the test split
// TransformWith and PredictAll.  The scaler's Mean/Std, the SVM's W/B and
// the predictions must all agree, for any worker count.
func TestTrainMatchesPrimitives(t *testing.T) {
	ctx := context.Background()
	train := plantedDataset(10, 60, 3, 91)
	test := plantedDataset(8, 60, 3, 92)
	res, err := Discover(ctx, train, smallOptions(93))
	if err != nil {
		t.Fatal(err)
	}
	svmCfg := classify.SVMConfig{Seed: 94}
	for _, workers := range []int{1, 3} {
		m, err := Train(ctx, train, res.Shapelets, Options{SVM: svmCfg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Predict(ctx, test)
		if err != nil {
			t.Fatal(err)
		}

		cfg := classify.TransformConfig{Workers: workers, Kernel: classify.DefaultKernel}
		X, err := classify.TransformWith(ctx, train, res.Shapelets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scaler, err := classify.FitScaler(X)
		if err != nil {
			t.Fatal(err)
		}
		svm, err := classify.TrainSVMCtx(ctx, scaler.Apply(X), train.Labels(), svmCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		Xt, err := classify.TransformWith(ctx, test, res.Shapelets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := svm.PredictAll(scaler.Apply(Xt))

		if !sameBits(m.Scaler.Mean, scaler.Mean) || !sameBits(m.Scaler.Std, scaler.Std) {
			t.Fatalf("workers=%d: scaler differs", workers)
		}
		if !sameBits(m.SVM.B, svm.B) || len(m.SVM.W) != len(svm.W) {
			t.Fatalf("workers=%d: SVM bias or shape differs", workers)
		}
		for c := range svm.W {
			if !sameBits(m.SVM.W[c], svm.W[c]) {
				t.Fatalf("workers=%d: SVM weights of class %d differ", workers, svm.Classes[c])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d predictions, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
		if tm := m.Discovery.Timings; tm.Transform <= 0 || tm.Train <= 0 {
			t.Fatalf("workers=%d: Train timings missing: %+v", workers, tm)
		}
	}
}

// TestTrainErrors pins Train's typed failures: bad input, no shapelets and
// cancellation.
func TestTrainErrors(t *testing.T) {
	train := plantedDataset(6, 40, 2, 95)
	sh := []classify.Shapelet{{Class: 0, Values: ts.Series{1, 2, 3, 4}}}
	if _, err := Train(context.Background(), nil, sh, Options{}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("nil dataset: %v, want ErrBadInput", err)
	}
	if _, err := Train(context.Background(), train, nil, Options{}); !errors.Is(err, errs.ErrNoShapelets) {
		t.Fatalf("no shapelets: %v, want ErrNoShapelets", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Train(ctx, train, sh, Options{}); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled: %v, want ErrCanceled", err)
	}
}
