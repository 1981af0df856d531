package core

// Ablation benchmarks for the design choices DESIGN.md calls out: the DABF
// versus naive pruning at growing pool sizes, the DT and CR optimisations
// individually, and sequential versus parallel candidate generation.

import (
	"context"
	"strconv"
	"testing"

	"ips/internal/dabf"
	"ips/internal/ip"
	"ips/internal/ts"
)

func ablationPool(b *testing.B, qn int) (*ip.Pool, *dabf.DABF, *ts.Dataset) {
	b.Helper()
	d := plantedDataset(10, 80, 2, 40)
	pool, err := ip.GenerateSpan(context.Background(), d, ip.Config{QN: qn, QS: 3, Seed: 41}, nil)
	if err != nil {
		b.Fatal(err)
	}
	filt, err := dabf.BuildSpan(context.Background(), pool, dabf.Config{Seed: 42}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return pool, filt, d
}

func BenchmarkAblationPruneDABF(b *testing.B) {
	for _, qn := range []int{10, 40, 160} {
		b.Run(benchName("qn", qn), func(b *testing.B) {
			pool, filt, _ := ablationPool(b, qn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dabf.PruneSpan(context.Background(), pool, filt, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationPruneNaive(b *testing.B) {
	for _, qn := range []int{10, 40, 160} {
		b.Run(benchName("qn", qn), func(b *testing.B) {
			pool, filt, _ := ablationPool(b, qn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dabf.NaivePrune(context.Background(), pool, filt.Cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationSelection(b *testing.B) {
	cases := []struct {
		name  string
		useDT bool
		useCR bool
	}{
		{"raw", false, false},
		{"cr_only", false, true},
		{"dt_only", true, false},
		{"dt_cr", true, true},
	}
	pool, filt, d := ablationPool(b, 40)
	pruned, _, err := dabf.PruneSpan(context.Background(), pool, filt, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SelectTopK(context.Background(), pruned, d, filt, SelectionConfig{K: 5, UseDT: tc.useDT, UseCR: tc.useCR}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationWorkers(b *testing.B) {
	d := plantedDataset(12, 100, 2, 43)
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("w", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ip.GenerateSpan(context.Background(), d, ip.Config{QN: 20, QS: 3, Seed: 44, Workers: workers}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
