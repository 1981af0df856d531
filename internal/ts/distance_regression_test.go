package ts

import "testing"

// TestDistAbandonedWindowNeverUpdates pins the early-abandon contract: the
// returned minimum is always a fully-accumulated window sum.  The query
// matches the final window exactly (distance 0); every earlier window is
// abandoned against the running best and must not contribute.
func TestDistAbandonedWindowNeverUpdates(t *testing.T) {
	series := []float64{9, 9, 9, 9, 1, 2, 3}
	q := []float64{1, 2, 3}
	if got := Dist(q, series); got != 0 {
		t.Fatalf("Dist = %v, want exact 0 from the matching final window", got)
	}
	// And the argument order must not matter.
	if got := Dist(series, q); got != 0 {
		t.Fatalf("Dist swapped = %v, want 0", got)
	}
}
