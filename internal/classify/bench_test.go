package classify

import (
	"context"
	"fmt"
	"testing"

	"ips/internal/ts"
	"ips/internal/ucr"
)

// BenchmarkTransform measures the shapelet transform over an
// (instances × shapelet length) grid, on the batched engine and on the
// naive per-pair ts.Dist loop it replaced.  Single worker throughout: the
// engine/naive ratio is the algorithmic speedup (register-blocked sliding
// dot products with one exact refinement, fft crossover), uninflated by
// parallelism.  The last cell is the predict shape of perfbench's `fit`
// workload: 200 synthetic UWaveGestureLibraryY series (315 points) by 40
// shapelets, eight at each of the five candidate lengths IPS draws there
// (0.1–0.5 of the series length).
func BenchmarkTransform(b *testing.B) {
	datasets := []struct {
		name    string
		lengths []int
	}{
		{"GunPoint", []int{16, 64, 100}}, // 150-point series: rolling kernel
		{"Mallat", []int{64, 512}},       // 1024-point series: long-query rolling stress
		{"HandOutlines", []int{1024}},    // 2709-point series: auto crosses to fft against the Go pass
	}
	for _, ds := range datasets {
		for _, instances := range []int{10, 40} {
			train, _, err := ucr.GenerateByName(ds.name, ucr.GenConfig{Seed: 1, MaxTrain: instances, MaxTest: 1})
			if err != nil {
				b.Fatal(err)
			}
			for _, L := range ds.lengths {
				sh := make([]Shapelet, 10)
				for i := range sh {
					in := train.Instances[i%len(train.Instances)]
					at := (i * 17) % (len(in.Values) - L + 1)
					sh[i] = Shapelet{Class: in.Label, Values: in.Values[at : at+L].Clone()}
				}
				benchTransform(b, fmt.Sprintf("%s/inst=%d/L=%d", ds.name, len(train.Instances), L), train, sh)
			}
		}
	}
	train, _, err := ucr.GenerateByName("UWaveGestureLibraryY", ucr.GenConfig{Seed: 1, MaxTrain: 200, MaxTest: 1})
	if err != nil {
		b.Fatal(err)
	}
	lengths := []int{31, 63, 94, 126, 157}
	sh := make([]Shapelet, 40)
	for i := range sh {
		in := train.Instances[(i*23)%len(train.Instances)]
		L := lengths[i%len(lengths)]
		at := (i * 17) % (len(in.Values) - L + 1)
		sh[i] = Shapelet{Class: in.Label, Values: in.Values[at : at+L].Clone()}
	}
	benchTransform(b, fmt.Sprintf("UWaveGestureLibraryY/inst=%d/fit", len(train.Instances)), train, sh)
}

// benchTransform runs the engine and the naive loop on one cell.
func benchTransform(b *testing.B, label string, train *ts.Dataset, sh []Shapelet) {
	b.Run("engine/"+label, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TransformWith(context.Background(), train, sh, TransformConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive/"+label, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := make([][]float64, len(train.Instances))
			for j, in := range train.Instances {
				row := make([]float64, len(sh))
				for si, s := range sh {
					row[si] = ts.Dist(s.Values, in.Values)
				}
				out[j] = row
			}
		}
	})
}

// BenchmarkTrainSVM trains the one-vs-rest SVM on features shaped like
// perfbench's fit workload: the shapelet transform of synthetic
// UWaveGestureLibraryY (896 training series, 8 classes) by 40 shapelets of
// length 63, standardised, at one and two workers.  The weights are
// bit-identical at either worker count; only the time differs.
func BenchmarkTrainSVM(b *testing.B) {
	train, _, err := ucr.GenerateByName("UWaveGestureLibraryY", ucr.GenConfig{Seed: 1, MaxTest: 1})
	if err != nil {
		b.Fatal(err)
	}
	const shapelets, L = 40, 63
	sh := make([]Shapelet, shapelets)
	for i := range sh {
		in := train.Instances[(i*23)%len(train.Instances)]
		at := (i * 17) % (len(in.Values) - L + 1)
		sh[i] = Shapelet{Class: in.Label, Values: in.Values[at : at+L].Clone()}
	}
	X, err := TransformWith(context.Background(), train, sh, TransformConfig{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	scaler, err := FitScaler(X)
	if err != nil {
		b.Fatal(err)
	}
	Xs, y := scaler.Apply(X), train.Labels()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TrainSVMCtx(context.Background(), Xs, y, SVMConfig{Seed: 1, Workers: workers}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
