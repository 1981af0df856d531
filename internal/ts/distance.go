package ts

import "math"

// SqDist returns the squared Euclidean distance between equal-length a and b.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// EuclideanDist returns the Euclidean distance between equal-length a and b.
func EuclideanDist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Dist implements Def. 4 of the paper: the minimum, over all alignments of
// the shorter series inside the longer one, of the length-normalised squared
// Euclidean distance
//
//	dist(Tp, Tq) = min_j (1/|Tp|) Σ_l (tq_{j+l-1} − tp_l)²   (|Tq| ≥ |Tp|).
//
// The arguments may be passed in either order; the shorter one slides.
// The result is the minimum over alignments of the fully-accumulated
// left-to-right sum: early-abandoned windows never update the minimum, so a
// partial sum can never masquerade as a distance.
//
// Callers evaluating many queries against the same series (the shapelet
// transform, candidate scoring) should use the batched engine in
// internal/dist, which precomputes per-series prefix statistics once and
// returns byte-identical values per pair.
func Dist(p, q []float64) float64 {
	if len(p) > len(q) {
		p, q = q, p
	}
	if len(p) == 0 {
		return 0
	}
	best := math.Inf(1)
	for j := 0; j+len(p) <= len(q); j++ {
		var s float64
		win := q[j : j+len(p)]
		abandoned := false
		for l := range p {
			d := win[l] - p[l]
			s += d * d
			if s >= best*float64(len(p)) {
				abandoned = true // early abandon: cannot beat the best alignment
				break
			}
		}
		if abandoned {
			continue
		}
		if v := s / float64(len(p)); v < best {
			best = v
		}
	}
	return best
}

// FlatStd is the standard deviation below which ZNormSqDistFromTerms, and so
// ZNormSqDistFromStats, treats a subsequence as constant.
const FlatStd = 1e-12

// CorrTerms returns the numerator and denominator of the Pearson correlation
// of two length-w subsequences (fw = w), given their sliding dot product qt,
// their means and standard deviations: corr = num/den with
//
//	num = qt − w μa μb,  den = w σa σb.
//
// ZNormSqDistFromTerms divides the two.  The STOMP self-join (internal/mp)
// compares num against den times a floor to rule a cell out without
// dividing, which is exact only if both see the same num and den on every
// platform; so both compute them through this one function, not through
// two copies of the formula (a platform's fused-multiply-add decisions then
// apply identically to both).
//
//ips:hotpath
func CorrTerms(qt, fw, meanA, stdA, meanB, stdB float64) (num, den float64) {
	return qt - fw*meanA*meanB, fw * stdA * stdB
}

// ZNormSqDistFromTerms returns the z-normalised squared Euclidean distance of
// two length-w subsequences (fw = w) from their correlation terms (see
// CorrTerms) and standard deviations: the standard matrix-profile identity
//
//	d² = 2w (1 − num/den),  num/den clamped to [−1, 1].
//
// Near-constant subsequences (σ < FlatStd) are handled conventionally: two
// constants are at distance 0, a constant against a non-constant at
// distance √(2w)² = 2w.
//
// This runs once per matrix-profile cell, so the joins and the STOMPI append
// call it and CorrTerms directly: each fits the compiler's inlining budget,
// which ZNormSqDistFromStats, calling both, does not.  It must stay
// allocation-free.
//
//ips:hotpath
func ZNormSqDistFromTerms(num, den, fw, stdA, stdB float64) float64 {
	if stdA < FlatStd && stdB < FlatStd {
		return 0
	}
	if stdA < FlatStd || stdB < FlatStd {
		return 2 * fw
	}
	corr := num / den
	// Huge-magnitude (but finite) inputs overflow the sliding statistics:
	// dots and variances reach ±Inf and Inf−Inf / Inf÷Inf turn corr into
	// NaN, which the clamps below cannot catch.  Treat such garbage as zero
	// correlation so the distance stays finite, in [0, 4w], and — crucially
	// for the tiled kernel — deterministic, instead of leaking NaN into the
	// profile where it would poison every min-reduce.
	if math.IsNaN(corr) {
		corr = 0
	}
	if corr > 1 {
		corr = 1
	}
	if corr < -1 {
		corr = -1
	}
	return 2 * fw * (1 - corr)
}

// ZNormSqDistFromStats returns the z-normalised squared Euclidean distance of
// two length-w subsequences given their sliding dot product qt, their means
// and standard deviations: ZNormSqDistFromTerms of their CorrTerms,
//
//	d² = 2w (1 − (qt − w μa μb) / (w σa σb)).
func ZNormSqDistFromStats(qt float64, w int, meanA, stdA, meanB, stdB float64) float64 {
	fw := float64(w)
	num, den := CorrTerms(qt, fw, meanA, stdA, meanB, stdB)
	return ZNormSqDistFromTerms(num, den, fw, stdA, stdB)
}

// DTW returns the dynamic time warping distance between a and b under the
// squared point cost, constrained to a Sakoe-Chiba band of half-width window
// (window < 0 means unconstrained).  The returned value is the square root of
// the accumulated cost, matching the usual 1NN-DTW convention.
func DTW(a, b []float64, window int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if window < 0 {
		window = max(n, m)
	}
	// The band must be at least |n−m| wide for a path to exist.
	if w := abs(n - m); window < w {
		window = w
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := max(1, i-window)
		hi := min(m, i+window)
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			cost := d * d
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[m])
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
