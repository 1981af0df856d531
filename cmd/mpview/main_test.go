package main

import (
	"testing"
	"unicode/utf8"
)

// TestSparkGolden pins the rendering of an ordinary window, and of a constant
// one, rune for rune.
func TestSparkGolden(t *testing.T) {
	if got, want := spark([]float64{3, 1, 4, 1, 5, 9, 2, 6}), "▂▁▃▁▄█▁▅"; got != want {
		t.Fatalf("spark = %q, want %q", got, want)
	}
	if got, want := spark([]float64{2.5, 2.5, 2.5}), "▁▁▁"; got != want {
		t.Fatalf("constant spark = %q, want %q", got, want)
	}
}

// TestSparkExtremeRange: a window spanning more than the float64 range, where
// hi − lo overflows to +Inf, still renders one rune per value, from ▁ at its
// minimum to █ at its maximum.
func TestSparkExtremeRange(t *testing.T) {
	window := []float64{0.5, 1.7e308, -1.7e308, -0.25, 1e308}
	got := spark(window)
	if n := utf8.RuneCountInString(got); n != len(window) {
		t.Fatalf("spark = %q: %d runes for %d values", got, n, len(window))
	}
	runes := []rune(got)
	if runes[1] != '█' || runes[2] != '▁' {
		t.Fatalf("spark = %q: want █ at the maximum and ▁ at the minimum", got)
	}
}
