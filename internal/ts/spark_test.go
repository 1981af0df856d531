package ts

import (
	"testing"
	"unicode/utf8"
)

// Spark's rendering of ordinary, constant and empty series is pinned where
// it is printed: cmd/mpview's TestSparkGolden and internal/bench's
// TestSparkline.

// TestSparkExtremeRange: a window spanning more than the float64 range, where
// hi − lo overflows to +Inf, still renders one rune per value, from ▁ at its
// minimum to █ at its maximum.
func TestSparkExtremeRange(t *testing.T) {
	for _, window := range [][]float64{
		{0.5, 1.7e308, -1.7e308, -0.25, 1e308},
		{0, 1.7e308, -1.7e308, 2},
	} {
		got := Spark(window)
		if n := utf8.RuneCountInString(got); n != len(window) {
			t.Fatalf("Spark = %q: %d runes for %d values", got, n, len(window))
		}
		runes := []rune(got)
		if runes[1] != '█' || runes[2] != '▁' {
			t.Fatalf("Spark = %q: want █ at the maximum and ▁ at the minimum", got)
		}
	}
}
