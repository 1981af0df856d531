// Package dist is the batched Def. 4 distance engine: the shapelet transform
// (Def. 7) and every baseline's candidate evaluation reduce to "slide many
// queries over the same series and keep each minimum", and the per-pair
// ts.Dist loop recomputes window statistics from scratch for every pair.
// This package precomputes a per-series prepared form once — prefix sums of
// t² — shares it across every query against that series, and picks a kernel
// per query length.  The kernels differ only in how they compute the
// sliding dot products Σ_l q[l]·t[j+l] of a query against every window:
//
//   - rolling: directly, in blocks of consecutive windows with one
//     independent accumulator each — exactly (n−m+1)·m multiply-adds on any
//     data.  On amd64 with AVX a row of at least 16 windows runs the AVX
//     pass (rolling_amd64.s): 16 windows per block in four YMM accumulators,
//     writing the approximate profile below in the same pass.  Shorter
//     rows, CPUs without AVX and every other GOARCH run the Go pass
//     (directDots, four windows per block, then profileFromDots).  Each AVX
//     lane performs the Go pass's multiplies and adds in its order, so the
//     two passes are bit-equal on the default GOAMD64=v1;
//   - fft: through a cached padded FFT of the series (internal/fft.FT) in
//     O(n log n) per query.
//
// Both then go through one exact step: the approximate un-normalised profile
// Σw² − 2·q·w + Σq² (the MASS formulation, applied to the non-normalised
// Euclidean profile), followed by an exact re-summation in Go
// (Prepared.profileMin), with ts.Dist's left-to-right summation, of every
// window within floating-point error of the profile minimum.  The
// conservative error bound guarantees the true minimiser is among the
// re-summed windows, so both kernels return values byte-identical to ts.Dist
// for the same pair.  This makes the engine a drop-in replacement under
// golden tests and saved models; kernel choice is a pure throughput knob.
package dist

import (
	"math"
	"math/bits"
	"sync"

	"ips/internal/fft"
	"ips/internal/ts"
)

// Kernel identifies which distance kernel evaluated a (query, series) pair.
type Kernel uint8

const (
	// KernelAuto lets the engine choose per query length (the default).
	KernelAuto Kernel = iota
	// KernelRolling computes the sliding dot products directly, in register
	// blocks, then refines the profile minimum exactly.
	KernelRolling
	// KernelFFT computes the sliding dot products through the cached padded
	// series transform, then refines the profile minimum exactly.
	KernelFFT
	// KernelExact is the plain ts.Dist fallback used for degenerate inputs
	// (non-finite values, empty or over-long queries).  It cannot be forced.
	KernelExact
)

// String names the kernel for span attributes and benchmark reports.
func (k Kernel) String() string {
	switch k {
	case KernelRolling:
		return "rolling"
	case KernelFFT:
		return "fft"
	case KernelExact:
		return "exact"
	default:
		return "auto"
	}
}

// fftMinQueryLen is the shortest query the fft kernel is considered for.  In
// BenchmarkKernels the fft kernel is 4–14× slower than the rolling kernel's
// Go pass at every m ≤ 64 (17–57× slower than its AVX pass), and the cost
// model alone keeps every such shape rolling except the degenerate one-point
// transform (n = m = 1, where N·log₂N is 0); the floor keeps that one off the
// fft kernel too.
const fftMinQueryLen = 64

// fftCostFactor and fftCostFactorAVX scale the fft kernel's N·log₂N cost
// model against the rolling kernel's (n−m+1)·m when choosing a kernel, one
// factor per rolling pass: the Go pass, and the AVX pass where it runs (see
// approxProfile).  The rolling kernel does exactly (n−m+1)·m multiply-adds
// on any data, so both sides of the model depend on the shape alone.  Each
// factor is the fft kernel's time per N·log₂N over the pass's time per
// multiply-add, fitted with BenchmarkKernels (walk and znorm grids, cells
// with m ≥ 64 and more than one window):
//
//   - Go pass: the ratio is 13–21 (median 16), and any factor from 13.4 to
//     23.9 sends every cell to its faster kernel.  fft wins 1.5–2.2× at
//     (n=2709, m ≥ 541) and (n=4096, m=1024); rolling wins 1.4–1.7× at
//     (n=2709, m=270), (n=1024, m=512), (n=1024, m=256) and (n=4096, m=256).
//   - AVX pass: the ratio is 46–75 (median 57), and rolling wins every cell
//     of both grids, by 1.7× at (n=2709, m=1354) and 1.9× at (n=4096,
//     m=1024), the closest two; any factor of at least 37.4 keeps them all
//     rolling.  Past the grids fft catches up: at (n=8192, m=2048) and
//     (n=8192, m=4096), where (n−m+1)·m / N·log₂N reads 55 and 73, the two
//     kernels are within 1.15× of each other and trade places between runs,
//     and at (n=16384, m=8192), where it reads 137, fft wins 2.0×.  The
//     factor is the grids' median ratio.
//
// No pruned path is kept beside the rolling kernel: a norm-lower-bound-pruned
// early-abandoning scan beats its Go pass only where it skips most of the
// work — the walk grid's random-walk queries at m ≤ 64 (1.2–1.9×) and at
// (n=4096, m=256) (1.1×), and single-window shapes (m = n, 1.4–1.5×), where
// the rolling kernel sums the one window twice.  On the znorm grid the two
// are level at m ≈ 0.05·n (0.96–1.11), and at every m ≥ 0.1·n, the shapes of
// every length ratio the pipeline and the baselines use, the Go pass takes
// 0.38–1.03 of the pruned scan's time.
const (
	fftCostFactor    = 14.0
	fftCostFactorAVX = 57.0
)

// distEps scales the conservative floating-point error bound of the exact
// refinement both kernels share (see profileMin).  The true accumulated error
// of the prefix sums, the direct dot products and the FFT is below n·ε ≈
// 1e-12 of the total energy for any series this repository handles; 1e-9
// leaves three orders of magnitude of margin, and a too-large bound only
// costs a few extra exactly-recomputed windows, never correctness.
const distEps = 1e-9

// KernelFor returns the kernel the engine would choose for a length-m query
// against a length-n series (KernelExact for degenerate shapes).  Exposed so
// benchmarks and reports can label measurements with the chosen kernel.
func KernelFor(m, n int) Kernel {
	if m == 0 || n == 0 || m > n {
		return KernelExact
	}
	return chooseKernel(m, n)
}

// chooseKernel is the crossover heuristic for non-degenerate shapes: use the
// fft kernel when the rolling kernel's (n−m+1)·m work exceeds the cost model
// of two padded transforms, factor·N·log₂N with N = nextpow2(n+m−1) and the
// factor of the rolling pass that would run.
func chooseKernel(m, n int) Kernel {
	if m < fftMinQueryLen {
		return KernelRolling
	}
	w := n - m + 1
	factor := fftCostFactor
	if avx && w >= avxBlock {
		factor = fftCostFactorAVX
	}
	size := fft.NextPow2(n + m - 1)
	rolling := float64(w) * float64(m)
	fftCost := factor * float64(size) * float64(bits.Len(uint(size))-1)
	if rolling > fftCost {
		return KernelFFT
	}
	return KernelRolling
}

// Prepared is the per-series prepared form: prefix sums of t² computed once
// and shared by every query evaluated against the series, plus a cache
// of padded forward FFTs keyed by transform size.  Prepared aliases the
// series it was built from (the caller must not mutate it) and is safe for
// concurrent use.
type Prepared struct {
	t        []float64
	prefixSq []float64 // prefixSq[i] = Σ_{k<i} t[k]²
	finite   bool      // every value and the Σt² accumulator are finite
	// noFFT marks a scratch-prepared series (see Scratch.Prepare): padded
	// transforms would be built and discarded within one call, so the fft
	// kernel is never chosen and the fts caches are never populated.
	noFFT bool

	mu  sync.Mutex
	fts map[int]*fft.FT // padded forward transforms keyed by size
}

// Prepare builds the prepared form of t in O(n).  The returned value aliases
// t; it must not be mutated while the Prepared is in use.
func Prepare(t []float64) *Prepared {
	p := &Prepared{t: t, prefixSq: make([]float64, len(t)+1)}
	for i, v := range t {
		p.prefixSq[i+1] = p.prefixSq[i] + v*v
	}
	p.finite = finiteTotal(p.prefixSq[len(t)])
	return p
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
// profile value either kernel produces is within this bound of the exact
// left-to-right sum.
func (p *Prepared) errBound(qq float64) float64 {
	return distEps * (p.prefixSq[len(p.t)] + qq)
}

// ft returns the cached padded transform of the series for the given size,
// building it on first use, and counts the cache lookup into c.  nil means
// no transform could be built (impossible by construction); callers then
// compute the dots directly.
func (p *Prepared) ft(size int, c *Counts) *fft.FT {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.fts[size]; f != nil {
		c.FFTCacheHits++
		return f
	}
	f, err := fft.NewFT(p.t, size)
	if err != nil {
		return nil
	}
	c.FFTCacheMisses++
	if p.fts == nil {
		p.fts = map[int]*fft.FT{}
	}
	p.fts[size] = f
	return f
}

// Dist returns the Def. 4 distance of q against the prepared series,
// byte-identical to ts.Dist(q, series).
func (p *Prepared) Dist(q []float64) float64 {
	return p.DistCounted(q, nil)
}

// DistCounted is Dist with kernel-choice accounting into c (nil is allowed).
// It runs the batch engine's per-query path on a profile allocated per call.
func (p *Prepared) DistCounted(q []float64, c *Counts) float64 {
	if c == nil {
		c = &Counts{}
	}
	m, n := len(q), len(p.t)
	if m == 0 || n == 0 {
		c.Exact++
		return 0 // ts.Dist: an empty (shorter) side is at distance 0
	}
	qq := sumSq(q)
	if m > n || !p.finite || !finiteTotal(qq) {
		c.Exact++
		return ts.Dist(q, p.t)
	}
	var f *fft.FT
	if !p.noFFT && chooseKernel(m, n) == KernelFFT {
		f = p.ft(fft.NextPow2(n+m-1), c)
	}
	prof := make([]float64, n-m+1)
	minHat, _ := p.approxProfile(q, qq, prof, f, nil, c)
	return p.profileMin(q, qq, prof, minHat, c)
}

// approxProfile writes the approximate un-normalised profile ŝ_j = Σw² −
// 2·q·w + Σq² of q against every window j of the series into prof (one value
// per window) and returns its minimum.  The fft kernel (a padded series
// transform f is given) computes the sliding dots through f; the rolling
// kernel computes them directly, in the AVX pass on a CPU that has it and at
// least avxBlock windows, in the Go pass (directDots) otherwise.  Either way
// profileFromDots' arithmetic turns the dots into ŝ.  It counts the kernel
// that produced the profile and returns the (possibly grown) complex scratch
// buffer of the fft kernel.
//
//ips:hotpath
func (p *Prepared) approxProfile(q []float64, qq float64, prof []float64, f *fft.FT, cbuf []complex128, c *Counts) (float64, []complex128) {
	if f != nil {
		var err error
		if cbuf, err = f.SlidingDotsInto(q, prof, cbuf); err == nil {
			c.FFT++
			return p.profileFromDots(len(q), qq, prof), cbuf
		}
	}
	c.Rolling++
	if avx && len(prof) >= avxBlock {
		return p.profileAVX(q, qq, prof), cbuf
	}
	directDots(q, p.t, prof)
	return p.profileFromDots(len(q), qq, prof), cbuf
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
// its minimum.  It is the profile step of the fft kernel and of the rolling
// kernel's Go pass; the AVX pass performs the same operations in assembly.
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

// profileMin is the exact step both kernels share.  prof holds the
// approximate profile ŝ_j of q against every window and minHat its minimum
// (see approxProfile); every window whose ŝ_j is within twice errBound of
// minHat is re-summed with ts.Dist's left-to-right summation.  Every ŝ_j is
// within errBound of window j's left-to-right sum s_j, so the window j* with
// the smallest s_j has ŝ_j* ≤ s_j* + errBound ≤ s_k + errBound ≤ ŝ_k +
// 2·errBound for the approximate minimiser k: it is among the re-summed
// windows, and the returned minimum is byte-identical to ts.Dist.  It must
// not allocate.
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
