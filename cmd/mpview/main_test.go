package main

import (
	"testing"

	"ips/internal/ts"
)

// TestSparkGolden pins the rendering mpview prints beside each motif and
// discord, for an ordinary window and a constant one, rune for rune.
func TestSparkGolden(t *testing.T) {
	if got, want := ts.Spark([]float64{3, 1, 4, 1, 5, 9, 2, 6}), "▂▁▃▁▄█▁▅"; got != want {
		t.Fatalf("spark = %q, want %q", got, want)
	}
	if got, want := ts.Spark([]float64{2.5, 2.5, 2.5}), "▁▁▁"; got != want {
		t.Fatalf("constant spark = %q, want %q", got, want)
	}
}
