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
// parallelism.
func BenchmarkTransform(b *testing.B) {
	datasets := []struct {
		name    string
		lengths []int
	}{
		{"GunPoint", []int{16, 64, 100}}, // 150-point series: rolling kernel
		{"Mallat", []int{64, 512}},       // 1024-point series: long-query rolling stress
		{"HandOutlines", []int{1024}},    // 2709-point series: auto crosses to fft
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
				label := fmt.Sprintf("%s/inst=%d/L=%d", ds.name, len(train.Instances), L)
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
		}
	}
}
