package classify

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"ips/internal/ts"
	"ips/internal/ucr"
)

// fixtureShapelets carves shapelets out of the training instances at the
// given lengths, cycling over instances and offsets so queries of equal
// length still differ.
func fixtureShapelets(d *ts.Dataset, lengths []int) []Shapelet {
	var out []Shapelet
	for si, L := range lengths {
		in := d.Instances[si%len(d.Instances)]
		if L > len(in.Values) {
			L = len(in.Values)
		}
		at := (si * 13) % (len(in.Values) - L + 1)
		out = append(out, Shapelet{Class: in.Label, Values: in.Values[at : at+L].Clone()})
	}
	return out
}

// mustTransform runs TransformWith on a live context and fails the test on
// error.
func mustTransform(t *testing.T, d *ts.Dataset, shapelets []Shapelet, cfg TransformConfig) [][]float64 {
	t.Helper()
	X, err := TransformWith(context.Background(), d, shapelets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return X
}

// naiveTransform is the pre-engine reference: one ts.Dist call per
// (instance, shapelet) pair.
func naiveTransform(d *ts.Dataset, shapelets []Shapelet) [][]float64 {
	out := make([][]float64, len(d.Instances))
	for j, in := range d.Instances {
		row := make([]float64, len(shapelets))
		for i, s := range shapelets {
			row[i] = ts.Dist(s.Values, in.Values)
		}
		out[j] = row
	}
	return out
}

func requireBitsEqual(t *testing.T, got, want [][]float64, label string) {
	t.Helper()
	for j := range want {
		for i := range want[j] {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
				t.Fatalf("%s: embedding[%d][%d] = %v (bits %x), want %v (bits %x)",
					label, j, i, got[j][i], math.Float64bits(got[j][i]),
					want[j][i], math.Float64bits(want[j][i]))
			}
		}
	}
}

// TestTransformByteIdenticalUCR pins the engine port's central contract: the
// batched transform is byte-identical to the per-pair ts.Dist loop on UCR
// fixtures, for every worker count.  HandOutlines' 2709-point series are the
// longest in the dataset table.
func TestTransformByteIdenticalUCR(t *testing.T) {
	cases := []struct {
		dataset string
		max     int
		lengths []int
	}{
		{"GunPoint", 20, []int{5, 16, 64, 64, 75, 100, 150}},
		{"Mallat", 6, []int{8, 64, 256, 512, 512, 1024}},
		{"HandOutlines", 4, []int{64, 1024, 1024}},
	}
	for _, tc := range cases {
		train, _, err := ucr.GenerateByName(tc.dataset, ucr.GenConfig{Seed: 1, MaxTrain: tc.max, MaxTest: 1})
		if err != nil {
			t.Fatal(err)
		}
		sh := fixtureShapelets(train, tc.lengths)
		want := naiveTransform(train, sh)
		for _, workers := range []int{1, 2, 3, 8} {
			got := mustTransform(t, train, sh, TransformConfig{Workers: workers})
			requireBitsEqual(t, got, want, fmt.Sprintf("%s workers=%d", tc.dataset, workers))
		}
	}
}

// TestTransformSharedCacheConcurrent runs several transforms of the same
// dataset concurrently — the cross-validation / train-then-test sharing
// pattern — and requires every result byte-identical to the sequential
// reference.  Run under -race in CI, this exercises the shared batch and
// the per-worker scratch arenas from multiple goroutines.
func TestTransformSharedCacheConcurrent(t *testing.T) {
	train, _, err := ucr.GenerateByName("Mallat", ucr.GenConfig{Seed: 2, MaxTrain: 8, MaxTest: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := fixtureShapelets(train, []int{16, 64, 300, 512})
	want := naiveTransform(train, sh)
	var wg sync.WaitGroup
	results := make([][][]float64, 6)
	errs := make([]error, len(results))
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = TransformWith(context.Background(), train, sh, TransformConfig{Workers: 1 + g%3})
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		requireBitsEqual(t, got, want, fmt.Sprintf("goroutine %d", g))
	}
}
