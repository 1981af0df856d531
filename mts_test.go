package ips

import (
	"context"
	"math"
	"testing"
)

func TestPublicMTSAPI(t *testing.T) {
	train, test := GenerateMTS(MTSGenConfig{Channels: 3, Seed: 1})
	if train.NumChannels() != 3 {
		t.Fatalf("channels = %d", train.NumChannels())
	}
	opt := DefaultOptions()
	opt.K = 3
	opt.IP.QN = 5
	opt.IP.Seed, opt.DABF.Seed, opt.SVM.Seed = 2, 2, 2

	acc, model, err := EvaluateMTS(context.Background(), train, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 75 {
		t.Fatalf("multivariate accuracy = %v%%", acc)
	}
	if len(model.ShapeletsPerChannel) != 3 {
		t.Fatalf("per-channel shapelets = %d", len(model.ShapeletsPerChannel))
	}
	// FitMTS path.
	m2, err := FitMTS(context.Background(), train, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Predict(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != test.Len() {
		t.Fatalf("pred len = %d", len(got))
	}
}

func TestPublicWorkersDeterminism(t *testing.T) {
	train, test, err := GenerateDataset("GunPoint", GenConfig{MaxTest: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.IP.QN = 5
	opt.IP.Seed, opt.DABF.Seed, opt.SVM.Seed = 4, 4, 4

	accSeq, _, err := Evaluate(context.Background(), train, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	accPar, _, err := Evaluate(context.Background(), train, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	if accSeq != accPar {
		t.Fatalf("workers changed the result: %v vs %v", accSeq, accPar)
	}
}

// TestFitMTSWorkersBitIdentical pins the multivariate fit to the worker
// count's invariance: Workers 1 and 3 run discovery, the per-channel
// transforms and the SVM on different fan-outs, and must still give the
// same scaler, weights and predictions bit for bit.
func TestFitMTSWorkersBitIdentical(t *testing.T) {
	train, test := GenerateMTS(MTSGenConfig{Channels: 3, Classes: 3, Seed: 5})
	opt := DefaultOptions()
	opt.K = 3
	opt.IP.QN = 5
	opt.IP.Seed, opt.DABF.Seed, opt.SVM.Seed = 6, 6, 6
	fit := func(workers int) (*MTSModel, []int) {
		t.Helper()
		opt.Workers = workers
		m, err := FitMTS(context.Background(), train, opt)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Predict(context.Background(), test)
		if err != nil {
			t.Fatal(err)
		}
		return m, pred
	}
	same := func(a, b []float64) bool {
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
	seq, seqPred := fit(1)
	par, parPred := fit(3)
	if !same(seq.Scaler.Mean, par.Scaler.Mean) || !same(seq.Scaler.Std, par.Scaler.Std) {
		t.Fatal("scaler differs between Workers 1 and 3")
	}
	if !same(seq.SVM.B, par.SVM.B) || len(seq.SVM.W) != len(par.SVM.W) {
		t.Fatal("SVM bias or shape differs between Workers 1 and 3")
	}
	for c := range seq.SVM.W {
		if !same(seq.SVM.W[c], par.SVM.W[c]) {
			t.Fatalf("SVM weights of class %d differ between Workers 1 and 3", seq.SVM.Classes[c])
		}
	}
	for i := range seqPred {
		if seqPred[i] != parPred[i] {
			t.Fatalf("prediction %d: %d at Workers 1, %d at Workers 3", i, seqPred[i], parPred[i])
		}
	}
}
