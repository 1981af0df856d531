// Package dist is the batched Def. 4 distance engine: the shapelet transform
// (Def. 7) and every baseline's candidate evaluation reduce to "slide many
// queries over the same series and keep each minimum", and the per-pair
// ts.Dist loop recomputes window statistics from scratch for every pair.
// This package precomputes a per-series prepared form once — prefix sums of
// t and t² — shares it across every query against that series, and picks a
// kernel per query length:
//
//   - rolling: the window Σt² comes from the prefix sums in O(1), the
//     norm lower bound (√Σt² − √Σq²)² skips hopeless windows without
//     touching their values, and surviving windows run the exact
//     early-abandoning scan of ts.Dist;
//   - fft: sliding dot products via a cached padded FFT of the series
//     (internal/fft.FT) in O(n log n) per query, then the handful of
//     windows within floating-point error of the profile minimum are
//     recomputed exactly.
//
// Both kernels return values byte-identical to ts.Dist for the same pair:
// the rolling kernel replays ts.Dist's scan on every window the lower bound
// cannot exclude, and the fft kernel's candidate refinement recomputes the
// winning alignment with the same left-to-right summation (the conservative
// error bound guarantees the true minimiser is among the candidates).  This
// makes the engine a drop-in replacement under golden tests and saved
// models; kernel choice is a pure throughput knob.
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
	// KernelRolling is the prefix-sum + norm-bound + early-abandon scan.
	KernelRolling
	// KernelFFT is the cached-FFT profile with exact candidate refinement.
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

// fftMinQueryLen is the shortest query the fft kernel is considered for:
// below it the padded transforms cannot beat the rolling scan at any series
// length.
const fftMinQueryLen = 64

// fftCostFactor scales the fft kernel's N·log₂N cost model against the
// rolling kernel's (n−m+1)·m when choosing a kernel.  Calibrated with the
// internal/dist benchmarks (see BenchmarkKernels): the complex butterflies
// of the two per-query transforms cost roughly this many times a rolling
// multiply-add, after the early-abandon savings of the rolling scan are
// priced in.  Measured on the benchmark grid: at (n=4096, m=1024) fft wins
// 2.7× and the model picks it; at (n=4096, m=256) and (n=1024, m=256)
// rolling wins 1.5–1.9× and the model correctly stays rolling (a factor of
// 8 mispredicted both of the latter cells).
const fftCostFactor = 14.0

// distEps scales the conservative floating-point error bound used by both
// the norm-lower-bound pruning and the fft candidate refinement.  The true
// accumulated error of the prefix sums and the FFT is below n·ε ≈ 1e-12 of
// the total energy for any series this repository handles; 1e-9 leaves three
// orders of magnitude of margin, and a too-large bound only costs a few
// extra exactly-recomputed windows, never correctness.
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
// of two padded transforms, fftCostFactor·N·log₂N with N = nextpow2(n+m−1).
func chooseKernel(m, n int) Kernel {
	if m < fftMinQueryLen {
		return KernelRolling
	}
	w := n - m + 1
	size := fft.NextPow2(n + m - 1)
	rolling := float64(w) * float64(m)
	fftCost := fftCostFactor * float64(size) * float64(bits.Len(uint(size))-1)
	if rolling > fftCost {
		return KernelFFT
	}
	return KernelRolling
}

// Prepared is the per-series prepared form: prefix sums of t and t² computed
// once and shared by every query evaluated against the series, plus a cache
// of padded forward FFTs keyed by transform size.  Prepared aliases the
// series it was built from (the caller must not mutate it) and is safe for
// concurrent use.
type Prepared struct {
	t        []float64
	prefix   []float64 // prefix[i]   = Σ_{k<i} t[k]
	prefixSq []float64 // prefixSq[i] = Σ_{k<i} t[k]²
	finite   bool      // every value and the Σt² accumulator are finite
	// noFFT marks a scratch-prepared series (see Scratch.Prepare): padded
	// transforms would be built and discarded within one call, so the fft
	// kernel is never chosen and the fts caches are never populated.
	noFFT bool

	mu  sync.Mutex
	fts map[int]*fft.FT // padded forward transforms keyed by size

	// float32 side, built lazily on the first single-precision evaluation
	// (grow-once, so a scratch-reused Prepared re-fills in place).
	built32  bool
	t32      []float32
	tt32     float32 // Σt² accumulated in float32
	finite32 bool    // every rounded value and tt32 are finite in float32
	fts32    map[int]*fft.FT32
}

// Prepare builds the prepared form of t in O(n).  The returned value aliases
// t; it must not be mutated while the Prepared is in use.
func Prepare(t []float64) *Prepared {
	p := &Prepared{
		t:        t,
		prefix:   make([]float64, len(t)+1),
		prefixSq: make([]float64, len(t)+1),
	}
	for i, v := range t {
		p.prefix[i+1] = p.prefix[i] + v
		p.prefixSq[i+1] = p.prefixSq[i] + v*v
	}
	p.finite = finiteTotal(p.prefixSq[len(t)])
	return p
}

// finiteTotal reports whether the Σt² accumulator is finite.  Squares are
// non-negative, so a NaN anywhere or an overflow to +Inf both surface in the
// final accumulator; plain sums cannot overflow when the squared sums do not.
func finiteTotal(total float64) bool {
	return !math.IsNaN(total) && !math.IsInf(total, 0)
}

// Len returns the prepared series length.
func (p *Prepared) Len() int { return len(p.t) }

// Series returns the underlying series (aliased, read-only by convention).
func (p *Prepared) Series() []float64 { return p.t }

// WindowSum returns Σ t[j:j+m] in O(1) from the prefix sums.
func (p *Prepared) WindowSum(j, m int) float64 {
	return p.prefix[j+m] - p.prefix[j]
}

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
// distances of a query with energy qq against this series: any value the
// rolling statistics or the FFT produce is within this bound of the exact
// left-to-right sum.
func (p *Prepared) errBound(qq float64) float64 {
	return distEps * (p.prefixSq[len(p.t)] + qq)
}

// ft returns the cached padded transform of the series for the given size,
// building it on first use.  The second result reports a cache hit.
func (p *Prepared) ft(size int) (*fft.FT, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.fts[size]; f != nil {
		return f, true
	}
	f, err := fft.NewFT(p.t, size)
	if err != nil {
		return nil, false // impossible by construction; callers fall back
	}
	if p.fts == nil {
		p.fts = map[int]*fft.FT{}
	}
	p.fts[size] = f
	return f, false
}

// f32 returns the float32 view of the series — the rounded values and their
// float32-accumulated energy — building it on first use.  The third result
// reports whether the rounded series is usable: a magnitude beyond float32
// range converts to ±Inf, in which case callers stay on the float64 kernels.
// The build is grow-once so a scratch-reused Prepared re-fills in place.
func (p *Prepared) f32() ([]float32, float32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.built32 {
		n := len(p.t)
		if cap(p.t32) < n {
			p.t32 = make([]float32, n)
		}
		p.t32 = p.t32[:n]
		var tt float32
		for i, v := range p.t {
			f := float32(v)
			p.t32[i] = f
			tt += f * f
		}
		p.tt32 = tt
		f64 := float64(tt)
		p.finite32 = p.finite && !math.IsNaN(f64) && !math.IsInf(f64, 0)
		p.built32 = true
	}
	return p.t32, p.tt32, p.finite32
}

// ft32 returns the cached complex64 padded transform of the float32 series
// for the given size, building both on first use.  The second result reports
// a cache hit.  Never called for noFFT (scratch-prepared) series.
func (p *Prepared) ft32(size int) (*fft.FT32, bool) {
	t32, _, ok := p.f32()
	if !ok {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.fts32[size]; f != nil {
		return f, true
	}
	f, err := fft.NewFT32(t32, size)
	if err != nil {
		return nil, false // impossible by construction; callers fall back
	}
	if p.fts32 == nil {
		p.fts32 = map[int]*fft.FT32{}
	}
	p.fts32[size] = f
	return f, false
}

// Dist returns the Def. 4 distance of q against the prepared series,
// byte-identical to ts.Dist(q, series).  Single queries keep an
// early-abandoning min-only path: the rolling kernel never materialises a
// profile.
func (p *Prepared) Dist(q []float64) float64 {
	return p.DistCounted(q, nil)
}

// DistCounted is Dist with kernel-choice accounting into c (nil is allowed).
func (p *Prepared) DistCounted(q []float64, c *Counts) float64 {
	if c == nil {
		c = &Counts{}
	}
	m, n := len(q), len(p.t)
	if m == 0 || n == 0 {
		c.Exact++
		return 0 // ts.Dist: an empty (shorter) side is at distance 0
	}
	if m > n || !p.finite {
		c.Exact++
		return ts.Dist(q, p.t)
	}
	qq := sumSq(q)
	if math.IsNaN(qq) || math.IsInf(qq, 0) {
		c.Exact++
		return ts.Dist(q, p.t)
	}
	if !p.noFFT && chooseKernel(m, n) == KernelFFT {
		if d, ok := p.fftMin(q, qq, c); ok {
			return d
		}
		c.Exact++
		return ts.Dist(q, p.t)
	}
	c.Rolling++
	return p.rollingMin(q, qq, c)
}

// rollingMin is the min-only rolling kernel: per window, the norm lower
// bound (√Σt² − √Σq²)² ≤ Σ(t−q)² is evaluated in O(1) from the prefix sums,
// and only windows it cannot exclude run ts.Dist's exact early-abandoning
// scan.  Pruned windows provably cannot improve the running best, so the
// result is byte-identical to ts.Dist.
//
// The bound test runs in the squared domain — lb > T ⟺ Σt²+Σq²−T >
// 2√(Σt²·Σq²), squared — so the hot loop carries no sqrt.  The margin on T
// is 2√(Σq²·errBound)+errBound, not errBound alone: the √-form of the bound
// amplifies the prefix-difference error of a near-zero-energy window by the
// query magnitude, and the wider margin provably covers that worst case.
func (p *Prepared) rollingMin(q []float64, qq float64, c *Counts) float64 {
	m := len(q)
	fm := float64(m)
	w := len(p.t) - m + 1
	bound := p.errBound(qq)
	margin := 2*math.Sqrt(qq*bound) + bound
	best := math.Inf(1)
	lbT := math.Inf(1) // best un-normalised sum + safety margin
	for j := 0; j < w; j++ {
		ws := p.WindowSqSum(j, m)
		if a := ws + qq - lbT; a > 0 && a*a > 4*ws*qq {
			c.LBSkipped++
			continue
		}
		var s float64
		win := p.t[j : j+m]
		abandoned := false
		for l := range q {
			diff := win[l] - q[l]
			s += diff * diff
			if s >= best*fm {
				abandoned = true
				break
			}
		}
		if abandoned {
			continue
		}
		if v := s / fm; v < best {
			best = v
			lbT = s + margin
		}
	}
	return best
}

// fftMin is the min-only fft kernel: sliding dots from the cached padded
// transform, the approximate profile ŝ_j = Σt² − 2Σtq + Σq², and an exact
// naive recomputation of every window within the error bound of the
// approximate minimum.  The bound guarantees the exact minimiser is among
// the candidates, so the returned minimum matches ts.Dist.
func (p *Prepared) fftMin(q []float64, qq float64, c *Counts) (float64, bool) {
	m, n := len(q), len(p.t)
	w := n - m + 1
	size := fft.NextPow2(n + m - 1)
	f, hit := p.ft(size)
	if f == nil {
		return 0, false
	}
	if hit {
		c.FFTCacheHits++
	} else {
		c.FFTCacheMisses++
	}
	prof := make([]float64, w)
	if _, err := f.SlidingDotsInto(q, prof, nil); err != nil {
		return 0, false
	}
	c.FFT++
	minHat := math.Inf(1)
	for j := 0; j < w; j++ {
		sHat := p.WindowSqSum(j, m) - 2*prof[j] + qq
		if sHat < 0 {
			sHat = 0
		}
		prof[j] = sHat
		if sHat < minHat {
			minHat = sHat
		}
	}
	return p.refineMin(q, prof, minHat, qq, c), true
}

// refineMin recomputes every window whose approximate un-normalised squared
// distance is within twice the error bound of the approximate minimum with
// the exact left-to-right summation of ts.Dist, and returns the minimum
// normalised distance among them.
func (p *Prepared) refineMin(q []float64, prof []float64, minHat, qq float64, c *Counts) float64 {
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
