package ips

// One testing.B benchmark per table and figure of the paper's evaluation
// section.  Each benchmark runs the corresponding harness experiment at quick
// scale and reports wall time per full regeneration; `go test -bench=.`
// therefore regenerates every experiment.  Use cmd/ipsbench for the
// full-scale, human-readable runs.

import (
	"context"
	"io"
	"testing"

	"ips/internal/bench"
)

func quickHarness(seed int64) *bench.Harness {
	return &bench.Harness{Quick: true, Seed: seed, Out: io.Discard}
}

func BenchmarkTable2BaseTopK(b *testing.B) {
	h := quickHarness(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table2(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3DistributionFit(b *testing.B) {
	h := quickHarness(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table3(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Efficiency(b *testing.B) {
	h := quickHarness(1)
	datasets := []string{"ItalyPowerDemand", "ECG200", "GunPoint", "TwoLeadECG"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table4(context.Background(), datasets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Breakdown(b *testing.B) {
	h := quickHarness(1)
	datasets := []string{"ArrowHead", "ShapeletSim"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table5(context.Background(), datasets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6Accuracy(b *testing.B) {
	h := quickHarness(1)
	datasets := []string{"ItalyPowerDemand", "GunPoint", "Coffee"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table6(context.Background(), datasets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7LSH(b *testing.B) {
	h := quickHarness(1)
	datasets := []string{"ItalyPowerDemand", "GunPoint"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table7(context.Background(), datasets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9VaryK(b *testing.B) {
	h := quickHarness(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig9(context.Background(), []string{"BeetleFly"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10aDABF(b *testing.B) {
	h := quickHarness(1)
	datasets := []string{"ItalyPowerDemand", "ECG200"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig10a(context.Background(), datasets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bcDTCR(b *testing.B) {
	h := quickHarness(1)
	datasets := []string{"ItalyPowerDemand", "ECG200"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig10bc(context.Background(), datasets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Tests(b *testing.B) {
	h := quickHarness(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig11(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12VaryK(b *testing.B) {
	h := quickHarness(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig12(context.Background(), []string{"ArrowHead"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13CaseStudy(b *testing.B) {
	h := quickHarness(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig13(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscover measures raw shapelet discovery throughput on a
// mid-sized dataset — the library's core operation.
func BenchmarkDiscover(b *testing.B) {
	train, _, err := GenerateDataset("GunPoint", GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), train, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransform measures the shapelet transform of Def. 7.
func BenchmarkTransform(b *testing.B) {
	train, test, err := GenerateDataset("GunPoint", GenConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	model, err := Fit(context.Background(), train, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transform(context.Background(), test, model.Shapelets); err != nil {
			b.Fatal(err)
		}
	}
}
