package ips

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

func TestDefaultOptions(t *testing.T) {
	opt := DefaultOptions()
	if opt.K != 5 {
		t.Fatalf("K = %d, want 5", opt.K)
	}
	if opt.IP.QN != 10 || opt.IP.QS != 3 {
		t.Fatalf("IP defaults = %+v", opt.IP)
	}
	if len(opt.IP.LengthRatios) != 5 {
		t.Fatalf("length ratios = %v", opt.IP.LengthRatios)
	}
	if opt.DABF.Sigma != 3 || opt.DABF.Dim != 32 {
		t.Fatalf("DABF defaults = %+v", opt.DABF)
	}
}

func TestDatasets(t *testing.T) {
	if len(Datasets()) != 46 {
		t.Fatalf("datasets = %d, want 46", len(Datasets()))
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	train, test, err := GenerateDataset("ECG200", GenConfig{MaxTest: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.IP.QN = 10
	opt.IP.Seed = 2
	opt.DABF.Seed = 2

	res, err := Discover(context.Background(), train, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shapelets) == 0 {
		t.Fatal("no shapelets")
	}

	acc, model, err := Evaluate(context.Background(), train, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 60 {
		t.Fatalf("accuracy = %v%%", acc)
	}
	// Transform through the public API.
	X, err := Transform(context.Background(), test, model.Shapelets)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != test.Len() || len(X[0]) != len(model.Shapelets) {
		t.Fatalf("transform shape = %dx%d", len(X), len(X[0]))
	}
}

// TestTransformNilDataset pins Transform to Model.Predict's input contract
// for a nil dataset: a typed ErrBadInput, not a panic.  The fault matrix in
// internal/faulty drives Transform through the other bad inputs.
func TestTransformNilDataset(t *testing.T) {
	X, err := Transform(context.Background(), nil, []Shapelet{{Values: Series{0, 1, 0}}})
	if !errors.Is(err, ErrBadInput) || X != nil {
		t.Fatalf("Transform(nil) = %v, %v; want nil and an ErrBadInput error", X, err)
	}
}

func TestPublicTSVRoundTrip(t *testing.T) {
	train, _, err := GenerateDataset("Coffee", GenConfig{MaxTrain: 6, MaxTest: 6, MaxLength: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteTSV(filepath.Join(dir, "Coffee_TRAIN.tsv"), train); err != nil {
		t.Fatal(err)
	}
	if err := WriteTSV(filepath.Join(dir, "Coffee_TEST.tsv"), train); err != nil {
		t.Fatal(err)
	}
	tr, te, err := LoadSplit(dir, "Coffee")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != train.Len() || te.Len() != train.Len() {
		t.Fatal("round trip size mismatch")
	}
	if _, err := LoadTSV(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Fatal("missing file should error")
	}
	if _, _, err := GenerateDataset("Nope", GenConfig{}); err == nil {
		t.Fatal("unknown dataset should error")
	}
}
