// Package dist is the batched Def. 4 distance engine: the shapelet transform
// (Def. 7) and every baseline's candidate evaluation reduce to "slide many
// queries over the same series and keep each minimum", and the per-pair
// ts.Dist loop recomputes window statistics from scratch for every pair.
// This package precomputes a per-series prepared form once — prefix sums of
// t² — and shares it across every query against that series.
//
// One kernel, the rolling kernel, computes the sliding dot products
// Σ_l q[l]·t[j+l] of a query against every window directly, in blocks of
// consecutive windows with one independent accumulator each — exactly
// (n−m+1)·m multiply-adds on any data.  On amd64 with AVX a row of at least
// 16 windows runs the AVX pass (rolling_amd64.s): 16 windows per block in
// four YMM accumulators, writing the approximate profile below in the same
// pass.  Shorter rows, CPUs without AVX and every other GOARCH run the Go
// pass (directDots, four windows per block, then profileFromDots).  Each AVX
// lane performs the Go pass's multiplies and adds in its order, so the two
// passes are bit-equal on the default GOAMD64=v1.
//
// The approximate un-normalised profile Σw² − 2·q·w + Σq² (the MASS
// formulation, applied to the non-normalised Euclidean profile) then goes
// through one exact step: a re-summation in Go (Prepared.profileMin), with
// ts.Dist's left-to-right summation, of every window within floating-point
// error of the profile minimum.  The conservative error bound guarantees the
// true minimiser is among the re-summed windows, so the engine returns values
// byte-identical to ts.Dist for the same pair.  This makes the engine a
// drop-in replacement under golden tests and saved models.
package dist

import (
	"math"

	"ips/internal/cpu"
	"ips/internal/ts"
)

// distEps scales the conservative floating-point error bound of the exact
// refinement (see profileMin).  The true accumulated error of the prefix sums
// and the direct dot products is below n·ε ≈ 1e-12 of the total energy for
// any series this repository handles; 1e-9 leaves three orders of magnitude
// of margin, and a too-large bound only costs a few extra exactly-recomputed
// windows, never correctness.
const distEps = 1e-9

// Prepared is the per-series prepared form: prefix sums of t² computed once
// and shared by every query evaluated against the series.  Prepared aliases
// the series it was built from (the caller must not mutate it).  A Prepared
// is never written after it is built, so it is safe for concurrent use.
type Prepared struct {
	t        []float64
	prefixSq []float64 // prefixSq[i] = Σ_{k<i} t[k]²
	finite   bool      // every value and the Σt² accumulator are finite
}

// Prepare builds the prepared form of t in O(n).  The returned value aliases
// t; it must not be mutated while the Prepared is in use.
func Prepare(t []float64) *Prepared {
	p := &Prepared{}
	p.reset(t)
	return p
}

// reset makes p the prepared form of t, reusing p's prefix-sum buffer when it
// is large enough.  It is the one prefix-sum loop behind Prepare and
// Scratch.Prepare, which differ only in who owns the buffer.
func (p *Prepared) reset(t []float64) {
	n := len(t)
	if cap(p.prefixSq) < n+1 {
		p.prefixSq = make([]float64, n+1)
	}
	p.prefixSq = p.prefixSq[:n+1]
	p.t = t
	p.prefixSq[0] = 0
	for i, v := range t {
		p.prefixSq[i+1] = p.prefixSq[i] + v*v
	}
	p.finite = finiteTotal(p.prefixSq[n])
}

// finiteTotal reports whether the Σt² accumulator is finite.  Squares are
// non-negative, so a NaN anywhere or an overflow to +Inf both surface in the
// final accumulator.
func finiteTotal(total float64) bool {
	return !math.IsNaN(total) && !math.IsInf(total, 0)
}

// Len returns the prepared series length.
func (p *Prepared) Len() int { return len(p.t) }

// Series returns the underlying series (aliased, read-only by convention).
func (p *Prepared) Series() []float64 { return p.t }

// WindowSqSum returns Σ t[j:j+m]² in O(1) from the prefix sums, clamped to
// be non-negative against prefix-difference round-off.
func (p *Prepared) WindowSqSum(j, m int) float64 {
	v := p.prefixSq[j+m] - p.prefixSq[j]
	if v < 0 {
		v = 0
	}
	return v
}

// errBound returns the absolute error margin for un-normalised squared
// distances of a query with energy qq against this series: any approximate
// profile value either rolling pass produces is within this bound of the
// exact left-to-right sum.
func (p *Prepared) errBound(qq float64) float64 {
	return distEps * (p.prefixSq[len(p.t)] + qq)
}

// Dist returns the Def. 4 distance of q against the prepared series,
// byte-identical to ts.Dist(q, series).
func (p *Prepared) Dist(q []float64) float64 {
	return p.DistCounted(q, nil)
}

// DistCounted is Dist with kernel accounting into c (nil is allowed).  It
// runs the batch engine's per-query path with a fresh Scratch.
func (p *Prepared) DistCounted(q []float64, c *Counts) float64 {
	if c == nil {
		c = &Counts{}
	}
	qq := sumSq(q)
	return p.eval(q, qq, finiteTotal(qq), &Scratch{}, c)
}

// eval is the engine's one per-query path, behind Batch.EvalScratchCtx and
// DistCounted: q has energy qq, and finite says whether qq is finite.  A
// degenerate pair — an empty or over-long query, or a non-finite value on
// either side — goes to ts.Dist; every other pair runs the rolling kernel
// into s's profile buffer and the exact step.
//
//ips:hotpath
func (p *Prepared) eval(q []float64, qq float64, finite bool, s *Scratch, c *Counts) float64 {
	m, n := len(q), len(p.t)
	if m == 0 || m > n || !finite || !p.finite {
		c.Exact++
		return ts.Dist(q, p.t) // 0 for an empty query, as ts.Dist defines it
	}
	w := n - m + 1
	if cap(s.dots) < w {
		s.dots = make([]float64, w)
	}
	prof := s.dots[:w]
	minHat := p.approxProfile(q, qq, prof, c)
	return p.profileMin(q, qq, prof, minHat, c)
}

// approxProfile writes the approximate un-normalised profile ŝ_j = Σw² −
// 2·q·w + Σq² of q against every window j of the series into prof (one value
// per window), returns its minimum and counts one rolling evaluation.  It
// runs the AVX pass on a CPU that has it and at least avxBlock windows, and
// the Go pass (directDots, then profileFromDots) otherwise.
//
//ips:hotpath
func (p *Prepared) approxProfile(q []float64, qq float64, prof []float64, c *Counts) float64 {
	c.Rolling++
	if cpu.AVX() && len(prof) >= avxBlock {
		return p.profileAVX(q, qq, prof)
	}
	directDots(q, p.t, prof)
	return p.profileFromDots(len(q), qq, prof)
}

// avxBlock is the number of consecutive windows one block of the AVX pass
// covers: four YMM accumulators of four windows each.  Rows with fewer
// windows keep the Go pass.
const avxBlock = 16

// directDots is the rolling kernel's Go pass: dots[j] = Σ_l q[l]·t[j+l] for
// every window j < len(dots), in blocks of four consecutive windows.  It runs
// where the AVX pass does not (see approxProfile).  A block keeps four
// independent accumulators, so its multiply-adds overlap instead of waiting
// on one dependent add chain, and each q[l] is loaded once per block.  Eight
// scalar accumulators do not fit: the amd64 register allocator spills two of
// them to the stack, and that block ran about 15% slower per multiply-add
// than this one (six measured level with four).
//
// No pruned path is kept beside it: a norm-lower-bound-pruned
// early-abandoning scan beats the Go pass only where it skips most of the
// work — BenchmarkKernels' random-walk queries at m ≤ 64 (1.2–1.9×) and at
// (n=4096, m=256) (1.1×), and single-window shapes (m = n, 1.4–1.5×), where
// the rolling kernel sums the one window twice.  On the z-normalised grid the
// two are level at m ≈ 0.05·n (0.96–1.11), and at every m ≥ 0.1·n, the shapes
// of every length ratio the pipeline and the baselines use, the Go pass takes
// 0.38–1.03 of the pruned scan's time.
//
// The dots are approximate by design; profileMin makes the result exact.  An
// m-term dot product is within m·u·Σ|q[l]·t[j+l]| ≤ m·u·(Σt²+Σq²)/2 of the
// exact value (u = 2⁻⁵³, the unit round-off), so its share of a profile value
// is within m·u·(Σt²+Σq²): at most 1e-13·(Σt²+Σq²) for m ≤ 900, 10⁴× inside
// distEps, and at most 1.1e-11·(Σt²+Σq²) — still 90× inside — for any query
// under 10⁵ points.
//
//ips:hotpath
func directDots(q, t, dots []float64) {
	m := len(q)
	w := len(dots)
	j := 0
	for ; j+4 <= w; j += 4 {
		t0 := t[j : j+m]
		t1 := t[j+1 : j+1+m]
		t2 := t[j+2 : j+2+m]
		t3 := t[j+3 : j+3+m]
		var d0, d1, d2, d3 float64
		for l, v := range q {
			d0 += v * t0[l]
			d1 += v * t1[l]
			d2 += v * t2[l]
			d3 += v * t3[l]
		}
		d := dots[j : j+4 : j+4]
		d[0], d[1], d[2], d[3] = d0, d1, d2, d3
	}
	for ; j < w; j++ {
		var d float64
		win := t[j : j+m]
		for l, v := range q {
			d += v * win[l]
		}
		dots[j] = d
	}
}

// profileFromDots overwrites the sliding dots of a length-m query with energy
// qq, in place, with the approximate profile ŝ_j = Σw² − 2·dot + Σq² (each
// term clamped at 0 as WindowSqSum and a squared distance are), and returns
// its minimum.  It is the profile step of the Go pass; the AVX pass performs
// the same operations in assembly.
//
//ips:hotpath
func (p *Prepared) profileFromDots(m int, qq float64, dots []float64) float64 {
	minHat := math.Inf(1)
	for j, d := range dots {
		sHat := p.WindowSqSum(j, m) - 2*d + qq
		if sHat < 0 {
			sHat = 0
		}
		dots[j] = sHat
		if sHat < minHat {
			minHat = sHat
		}
	}
	return minHat
}

// profileMin is the engine's exact step.  prof holds the approximate profile
// ŝ_j of q against every window and minHat its minimum (see approxProfile);
// every window whose ŝ_j is within twice errBound of minHat is re-summed with
// ts.Dist's left-to-right summation.  Every ŝ_j is within errBound of window
// j's left-to-right sum s_j, so the window j* with the smallest s_j has ŝ_j*
// ≤ s_j* + errBound ≤ s_k + errBound ≤ ŝ_k + 2·errBound for the approximate
// minimiser k: it is among the re-summed windows, and the returned minimum is
// byte-identical to ts.Dist.  It must not allocate.
//
//ips:hotpath
func (p *Prepared) profileMin(q []float64, qq float64, prof []float64, minHat float64, c *Counts) float64 {
	m := len(q)
	fm := float64(m)
	thr := minHat + 2*p.errBound(qq)
	best := math.Inf(1)
	for j, sHat := range prof {
		if sHat > thr {
			continue
		}
		c.Refined++
		var s float64
		win := p.t[j : j+m]
		for l := range q {
			diff := win[l] - q[l]
			s += diff * diff
		}
		if v := s / fm; v < best {
			best = v
		}
	}
	return best
}

func sumSq(q []float64) float64 {
	var s float64
	for _, v := range q {
		s += v * v
	}
	return s
}
