package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ips/internal/classify"
	"ips/internal/ts"
)

func TestFStatQuality(t *testing.T) {
	// Perfectly separated groups have enormous F.
	dists := []float64{1, 1.1, 0.9, 5, 5.1, 4.9}
	labels := []int{0, 0, 0, 1, 1, 1}
	if f := FStatQuality(dists, labels); f < 100 {
		t.Fatalf("separated F = %v", f)
	}
	// Identical distributions have tiny F.
	dists = []float64{1, 2, 3, 1, 2, 3}
	if f := FStatQuality(dists, labels); f > 1 {
		t.Fatalf("overlapping F = %v", f)
	}
	// Degenerate inputs.
	if f := FStatQuality([]float64{1, 2}, []int{0, 0}); f != 0 {
		t.Fatalf("single group F = %v", f)
	}
	// Zero within-class variance, zero between → 0; nonzero between → huge.
	if f := FStatQuality([]float64{1, 1, 1, 1}, []int{0, 0, 1, 1}); f != 0 {
		t.Fatalf("all-equal F = %v", f)
	}
	if f := FStatQuality([]float64{1, 1, 2, 2}, []int{0, 0, 1, 1}); f < 1e9 {
		t.Fatalf("perfect split F = %v", f)
	}
}

// TestFStatQualityDeterministic pins the F-statistic's bits: the
// per-class sums run in class order, not map order.
func TestFStatQualityDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := make([]float64, 60)
	labels := make([]int, len(dists))
	for i := range dists {
		labels[i] = i % 6
		dists[i] = rng.Float64() + 0.1*float64(labels[i])
	}
	want := math.Float64bits(FStatQuality(dists, labels))
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(FStatQuality(dists, labels)); got != want {
			t.Fatalf("call %d: bits %x, want %x", i, got, want)
		}
	}
}

func TestSTDiscoverAndEvaluate(t *testing.T) {
	train := plantedDataset(10, 60, 2, 61)
	test := plantedDataset(10, 60, 2, 62)
	sh, err := STDiscoverCtx(context.Background(), train, STConfig{K: 3, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	perClass := map[int]int{}
	for _, s := range sh {
		perClass[s.Class]++
		if s.Score <= 0 {
			t.Fatalf("non-positive F score: %+v", s.Score)
		}
	}
	if perClass[0] == 0 || perClass[1] == 0 {
		t.Fatalf("per-class counts = %v", perClass)
	}
	acc, err := STEvaluateCtx(context.Background(), train, test, STConfig{K: 5, Seed: 64}, classify.SVMConfig{Seed: 65})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 80 {
		t.Fatalf("ST accuracy = %v%%", acc)
	}
}

func TestSTErrors(t *testing.T) {
	if _, err := STDiscoverCtx(context.Background(), &ts.Dataset{}, STConfig{}); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestSTCandidateSubsampling(t *testing.T) {
	// A tight MaxCandidates must still produce shapelets.
	train := plantedDataset(10, 60, 2, 66)
	sh, err := STDiscoverCtx(context.Background(), train, STConfig{K: 2, MaxCandidates: 20, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) == 0 {
		t.Fatal("subsampled ST found nothing")
	}
}
