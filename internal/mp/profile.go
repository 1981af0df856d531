// Package mp implements the matrix profile (Def. 5 of the IPS paper): the
// STOMP self-join and AB-join over z-normalised Euclidean distance, masked
// variants that exclude subsequences spanning instance boundaries, motif and
// discord extraction, and the profile difference used by the MP baseline.
package mp

import "math"

// Profile annotates a time series: P[i] is the nearest-neighbour distance of
// the length-W subsequence starting at i, and I[i] the index of that
// neighbour (-1 when no valid neighbour exists).
type Profile struct {
	P []float64
	I []int
	W int
}

// Len returns the number of annotated subsequences.
func (p *Profile) Len() int { return len(p.P) }

// MinIndex returns the index of the smallest finite profile value (the top
// motif location) and that value.  It returns (-1, +Inf) when the profile has
// no finite entry.
func (p *Profile) MinIndex() (int, float64) {
	best, bestV := -1, math.Inf(1)
	for i, v := range p.P {
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// MaxIndex returns the index of the largest finite profile value (the top
// discord location) and that value.  It returns (-1, -Inf) when the profile
// has no finite entry.
func (p *Profile) MaxIndex() (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for i, v := range p.P {
		if !math.IsInf(v, 1) && v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// TopMotifs returns up to k motif pairs of the profile: positions whose
// nearest-neighbour distances are smallest, each paired with its neighbour,
// with an exclusion zone of half the window between reported positions.
func (p *Profile) TopMotifs(k int) [][2]int {
	idxs := p.TopK(k, false, p.W/2)
	out := make([][2]int, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, [2]int{i, p.I[i]})
	}
	return out
}

// TopDiscords returns up to k discord positions of the profile: positions
// whose nearest-neighbour distances are largest, with an exclusion zone of
// half the window.
func (p *Profile) TopDiscords(k int) []int {
	return p.TopK(k, true, p.W/2)
}

// TopK returns the indices of the k smallest (largest=false) or largest
// (largest=true) finite profile values, enforcing an exclusion zone of
// excl positions between any two reported indices so that trivially
// overlapping subsequences are not reported twice.
func (p *Profile) TopK(k int, largest bool, excl int) []int {
	type iv struct {
		i int
		v float64
	}
	order := make([]iv, 0, len(p.P))
	for i, v := range p.P {
		if math.IsInf(v, 0) {
			continue
		}
		order = append(order, iv{i, v})
	}
	// Simple selection: repeatedly pick the extreme value not excluded.
	picked := make([]int, 0, k)
	used := make([]bool, len(p.P))
	for len(picked) < k {
		best := -1
		for j, e := range order {
			if used[e.i] {
				continue
			}
			if best == -1 {
				best = j
				continue
			}
			if largest && e.v > order[best].v || !largest && e.v < order[best].v {
				best = j
			}
		}
		if best == -1 {
			break
		}
		bi := order[best].i
		picked = append(picked, bi)
		for d := -excl; d <= excl; d++ {
			if j := bi + d; j >= 0 && j < len(used) {
				used[j] = true
			}
		}
	}
	return picked
}

// Diff returns |a.P[i] − b.P[i]| for the overlapping prefix of two profiles
// (the paper's diff(P_AB, P_AA), Fig. 4).  Entries where either profile is
// infinite are set to -Inf so they are never selected as maxima.
func Diff(a, b *Profile) []float64 {
	n := len(a.P)
	if len(b.P) < n {
		n = len(b.P)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.IsInf(a.P[i], 0) || math.IsInf(b.P[i], 0) {
			out[i] = math.Inf(-1)
			continue
		}
		out[i] = math.Abs(a.P[i] - b.P[i])
	}
	return out
}
