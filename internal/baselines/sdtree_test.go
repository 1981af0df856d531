package baselines

import (
	"context"
	"testing"

	"ips/internal/ts"
)

func TestSDTreeLearnsPlantedPatterns(t *testing.T) {
	train := plantedDataset(12, 60, 2, 50)
	test := plantedDataset(12, 60, 2, 51)
	acc, err := SDTreeEvaluateCtx(context.Background(), train, test, SDTreeConfig{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 75 {
		t.Fatalf("shapelet tree accuracy = %v%%", acc)
	}
}

func TestSDTreeMultiClass(t *testing.T) {
	train := plantedDataset(10, 50, 3, 53)
	test := plantedDataset(10, 50, 3, 54)
	acc, err := SDTreeEvaluateCtx(context.Background(), train, test, SDTreeConfig{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 55 { // chance is 33%
		t.Fatalf("3-class shapelet tree accuracy = %v%%", acc)
	}
}

func TestSDTreeShapeletsAccessor(t *testing.T) {
	train := plantedDataset(10, 50, 2, 56)
	tree, err := SDTreeTrainCtx(context.Background(), train, SDTreeConfig{Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	sh := tree.Shapelets()
	if len(sh) == 0 {
		t.Fatal("trained tree should expose at least one shapelet")
	}
	for _, s := range sh {
		if len(s) == 0 {
			t.Fatal("empty node shapelet")
		}
	}
}

func TestSDTreeDepthLimit(t *testing.T) {
	train := plantedDataset(12, 50, 2, 58)
	tree, err := SDTreeTrainCtx(context.Background(), train, SDTreeConfig{MaxDepth: 1, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1 means at most one internal node.
	if n := len(tree.Shapelets()); n > 1 {
		t.Fatalf("depth-1 tree has %d internal nodes", n)
	}
}

func TestSDTreeErrors(t *testing.T) {
	if _, err := SDTreeTrainCtx(context.Background(), &ts.Dataset{}, SDTreeConfig{}); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestSDTreePureData(t *testing.T) {
	// One-class data is rejected by Validate(true)... so craft a dataset
	// with two classes where one leaf becomes pure quickly.
	d := &ts.Dataset{}
	for i := 0; i < 6; i++ {
		vals := make(ts.Series, 20)
		for j := range vals {
			vals[j] = float64(i % 2)
		}
		d.Instances = append(d.Instances, ts.Instance{Values: vals, Label: i % 2})
	}
	tree, err := SDTreeTrainCtx(context.Background(), d, SDTreeConfig{Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	pred := tree.PredictAll(d)
	for i, p := range pred {
		if p != d.Instances[i].Label {
			// Constant series per class are trivially separable by any
			// threshold; a miss would indicate a routing bug.
			t.Fatalf("trivial dataset misclassified at %d", i)
		}
	}
}
