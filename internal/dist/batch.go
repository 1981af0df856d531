package dist

import (
	"context"
	"math"
	"sort"

	"ips/internal/errs"
	"ips/internal/fft"
	"ips/internal/obs"
	"ips/internal/ts"
)

// Batch is a set of queries prepared for evaluation against many series:
// per-query energies are precomputed and the queries are grouped by length,
// so per (series, length) work — the kernel choice and the padded series FFT
// lookup — is paid once per group instead of once per query.  A Batch is
// immutable after construction and safe for concurrent EvalScratchCtx calls
// (one Scratch per goroutine) against different (or the same) Prepared
// series.
type Batch struct {
	queries [][]float64
	qq      []float64
	finite  []bool
	groups  []group
	kernel  Kernel // forced kernel for non-degenerate pairs; KernelAuto picks per group

	// float32 side, materialised once by SetPrecision(PrecisionFloat32).
	precision Precision
	q32       [][]float32
	qq32      []float32 // per-query energy accumulated in float32
	finite32  []bool    // rounded query and its energy are finite in float32
}

// group is the set of query indices sharing one length, ascending by length.
type group struct {
	m   int
	idx []int
}

// NewBatch prepares the queries for repeated evaluation.  The batch aliases
// the query slices; they must not be mutated while the batch is in use.
func NewBatch(queries [][]float64) *Batch {
	b := &Batch{
		queries: queries,
		qq:      make([]float64, len(queries)),
		finite:  make([]bool, len(queries)),
	}
	byLen := map[int][]int{}
	for i, q := range queries {
		qq := sumSq(q)
		b.qq[i] = qq
		b.finite[i] = !math.IsNaN(qq) && !math.IsInf(qq, 0)
		byLen[len(q)] = append(byLen[len(q)], i)
	}
	lens := make([]int, 0, len(byLen))
	for m := range byLen {
		lens = append(lens, m)
	}
	sort.Ints(lens)
	for _, m := range lens {
		b.groups = append(b.groups, group{m: m, idx: byLen[m]})
	}
	return b
}

// Len returns the number of queries in the batch.
func (b *Batch) Len() int { return len(b.queries) }

// SetKernel forces every non-degenerate evaluation onto the given kernel
// (KernelAuto restores the per-group crossover).  Kernel choice never
// changes results — it is a measurement knob for benchmarks and the
// byte-identity tests.  Must be called before the batch is shared across
// goroutines.
func (b *Batch) SetKernel(k Kernel) {
	if k == KernelExact {
		k = KernelAuto // the exact fallback is reserved for degenerate pairs
	}
	b.kernel = k
}

// SetPrecision selects the kernel arithmetic width (see Precision).  The
// float32 query views are materialised here, once, so the evaluation loops
// stay allocation-free.  Must be called before the batch is shared across
// goroutines.  Queries whose values overflow float32 range keep evaluating
// on the float64 kernels.
func (b *Batch) SetPrecision(p Precision) {
	b.precision = p
	if p != PrecisionFloat32 || b.q32 != nil {
		return
	}
	b.q32 = make([][]float32, len(b.queries))
	b.qq32 = make([]float32, len(b.queries))
	b.finite32 = make([]bool, len(b.queries))
	for i, q := range b.queries {
		q32 := make([]float32, len(q))
		var qq float32
		for l, v := range q {
			f := float32(v)
			q32[l] = f
			qq += f * f
		}
		b.q32[i] = q32
		b.qq32[i] = qq
		f64 := float64(qq)
		b.finite32[i] = b.finite[i] && !math.IsNaN(f64) && !math.IsInf(f64, 0)
	}
}

// Precision returns the arithmetic width the batch evaluates with.
func (b *Batch) Precision() Precision { return b.precision }

// EvalScratchCtx evaluates every query against p into out (which must hold
// Len() values), each byte-identical at float64 precision to
// ts.Dist(query, series), accumulating kernel accounting into c (nil is
// allowed).  Queries are processed grouped by length: the kernel is chosen
// once per group, and the fft kernel reuses one cached padded series
// transform across every group whose pad size coincides.
//
// The working set comes from a caller-owned Scratch (nil means a fresh one
// per call): the sliding-dots buffer, the fft complex buffer, and (for
// float32 batches) their single-precision counterparts all grow once inside
// s and are reused verbatim on the next call.  Callers that re-evaluate the
// same batch against a stream of series — the serve loop, CV folds —
// perform zero allocations after warm-up.  s must not be shared across
// goroutines.
//
// Cancellation is cooperative at length-group granularity: between groups
// the context is checked, and once it is done the remaining groups are
// skipped and an error matching errs.ErrCanceled is returned.  On
// cancellation out holds the completed groups' values and arbitrary (stale)
// values for the rest; callers must discard it.
//
//ips:blocking
func (b *Batch) EvalScratchCtx(ctx context.Context, p *Prepared, out []float64, c *Counts, s *Scratch) error {
	if c == nil {
		c = &Counts{}
	}
	if s == nil {
		s = &Scratch{}
	}
	n := len(p.t)
	for _, g := range b.groups {
		if err := errs.Ctx(ctx, errs.StageKernel, "dist.batch"); err != nil {
			b.logCanceled(ctx)
			return err
		}
		m := g.m
		if m == 0 {
			for _, qi := range g.idx {
				out[qi] = 0 // ts.Dist: an empty query is at distance 0
				c.Exact++
			}
			continue
		}
		if n == 0 || m > n || !p.finite {
			b.logExactFallback(ctx, m, n, p.finite, len(g.idx))
			for _, qi := range g.idx {
				out[qi] = ts.Dist(b.queries[qi], p.t)
				c.Exact++
			}
			continue
		}
		if b.precision == PrecisionFloat32 && b.evalGroup32(p, g, n-m+1, out, c, s) {
			continue
		}
		kernel := b.kernel
		if kernel == KernelAuto {
			kernel = chooseKernel(m, n)
		}
		var f *fft.FT
		if kernel == KernelFFT && !p.noFFT { // scratch-prepared: no resident transform to amortise
			f = p.ft(fft.NextPow2(n+m-1), c)
		}
		for _, qi := range g.idx {
			out[qi] = b.eval64(p, qi, f, s, c)
		}
	}
	return nil
}

// evalGroup32 evaluates one length group on the single-precision kernels and
// reports whether it handled the group; false means the series overflows
// float32 range and the caller must stay on the float64 kernels.  Individual
// queries that overflow float32 fall back per query.  The kernel crossover
// and the noFFT rule match the float64 path, so precision is the only
// difference.
//
//ips:hotpath
func (b *Batch) evalGroup32(p *Prepared, g group, w int, out []float64, c *Counts, s *Scratch) bool {
	t32, tt32, ok := p.f32()
	if !ok {
		return false
	}
	m := g.m
	n := len(t32)
	kernel := b.kernel
	if kernel == KernelAuto {
		kernel = chooseKernel(m, n)
	}
	if p.noFFT {
		kernel = KernelRolling
	}
	if kernel == KernelFFT {
		size := fft.NextPow2(n + m - 1)
		f, hit := p.ft32(size)
		if f == nil {
			kernel = KernelRolling
		} else {
			if hit {
				c.FFTCacheHits++
			} else {
				c.FFTCacheMisses++
			}
			if cap(s.winSq32) < w {
				s.winSq32 = make([]float32, w)
			}
			winSq32 := s.winSq32[:w]
			for j := 0; j < w; j++ {
				// The float64 prefix sums are exact to within distEps; one
				// rounding per window beats a float32 prefix difference.
				winSq32[j] = float32(p.WindowSqSum(j, m))
			}
			if cap(s.dots32) < w {
				s.dots32 = make([]float32, w)
			}
			dots32 := s.dots32[:w]
			for _, qi := range g.idx {
				if !b.finite32[qi] {
					out[qi] = b.eval64(p, qi, nil, s, c)
					continue
				}
				var err error
				s.cbuf32, err = f.SlidingDotsInto32(b.q32[qi], dots32, s.cbuf32)
				if err != nil {
					out[qi] = b.eval64(p, qi, nil, s, c)
					continue
				}
				c.FFT32++
				out[qi] = float64(b.fftMin32(t32, tt32, qi, winSq32, dots32, c))
			}
			return true
		}
	}
	for _, qi := range g.idx {
		if !b.finite32[qi] {
			out[qi] = b.eval64(p, qi, nil, s, c)
			continue
		}
		c.Rolling32++
		out[qi] = float64(b.rollingMin32(t32, qi))
	}
	return true
}

// eval64 evaluates query qi on the float64 kernels: ts.Dist for a
// non-finite query, otherwise its sliding dots (through the padded transform
// f when one is given, directly otherwise) refined exactly by profileMin.
// It is also the escape hatch for queries a float32 batch cannot represent.
//
//ips:hotpath
func (b *Batch) eval64(p *Prepared, qi int, f *fft.FT, s *Scratch, c *Counts) float64 {
	q := b.queries[qi]
	if !b.finite[qi] {
		c.Exact++
		return ts.Dist(q, p.t)
	}
	w := len(p.t) - len(q) + 1
	if cap(s.dots) < w {
		s.dots = make([]float64, w)
	}
	dots := s.dots[:w]
	s.cbuf = p.slidingDots(q, dots, f, s.cbuf, c)
	return p.profileMin(q, b.qq[qi], dots, c)
}

// logCanceled and logExactFallback exist to keep their variadic ...any
// arguments — which box one interface value per argument per call — out of
// EvalScratchCtx's group loop; in these straight-line bodies the boxing happens
// at most once per event instead of per iteration.
func (b *Batch) logCanceled(ctx context.Context) {
	obs.Log(ctx).Debug("batch evaluation canceled",
		"op", "dist.batch", "queries", len(b.queries))
}

func (b *Batch) logExactFallback(ctx context.Context, m, n int, finite bool, queries int) {
	obs.Log(ctx).Debug("batch group fell back to exact distances",
		"op", "dist.batch", "query_len", m, "series_len", n,
		"finite", finite, "queries", queries)
}

// rollingMin32 is the single-precision rolling kernel: a direct
// early-abandoning scan over the float32 series and query, reading half the
// bytes per window of the float64 scan.  No norm-lower-bound pruning — the
// bound's safety margin is derived for float64 error and early abandonment
// already does the heavy lifting; simplicity keeps the result a pure
// function of the rounded inputs.  Must not allocate.
//
//ips:hotpath
func (b *Batch) rollingMin32(t32 []float32, qi int) float32 {
	q := b.q32[qi]
	m := len(q)
	fm := float32(m)
	w := len(t32) - m + 1
	best := float32(math.Inf(1))
	for j := 0; j < w; j++ {
		var sum float32
		win := t32[j : j+m]
		abandoned := false
		for l := range q {
			diff := win[l] - q[l]
			sum += diff * diff
			if sum >= best*fm {
				abandoned = true
				break
			}
		}
		if abandoned {
			continue
		}
		if v := sum / fm; v < best {
			best = v
		}
	}
	return best
}

// fftMin32 converts the float32 sliding dots of query qi into the
// approximate un-normalised profile in place, then rescans every window
// within the float32 error bound of the approximate minimum directly (the
// same left-to-right float32 scan as rollingMin32), so both kernels return
// the same kind of value: the Def. 4 distance of the rounded inputs up to
// float32 accumulation error.  Must not allocate.
//
//ips:hotpath
func (b *Batch) fftMin32(t32 []float32, tt32 float32, qi int, winSq32, dots32 []float32, c *Counts) float32 {
	q := b.q32[qi]
	qq := b.qq32[qi]
	minHat := float32(math.Inf(1))
	for j := range dots32 {
		sHat := winSq32[j] - 2*dots32[j] + qq
		if sHat < 0 {
			sHat = 0
		}
		dots32[j] = sHat
		if sHat < minHat {
			minHat = sHat
		}
	}
	m := len(q)
	fm := float32(m)
	thr := minHat + 2*distEps32*(tt32+qq)
	best := float32(math.Inf(1))
	for j, sHat := range dots32 {
		if sHat > thr {
			continue
		}
		c.Refined++
		var sum float32
		win := t32[j : j+m]
		for l := range q {
			diff := win[l] - q[l]
			sum += diff * diff
		}
		if v := sum / fm; v < best {
			best = v
		}
	}
	return best
}
