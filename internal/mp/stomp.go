package mp

import (
	"context"
	"math"

	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/par"
	"ips/internal/ts"
)

// Options configures a join kernel invocation.  The zero value is a
// sequential join.
type Options struct {
	// Workers is the number of goroutines walking diagonal tiles (<=1 means
	// sequential).  The kernel is worker-count invariant: the profile is
	// byte-identical for every value of Workers, because each diagonal's
	// rolling dot product is walked by exactly one goroutine (so every cell
	// distance is bitwise reproducible) and the partial profiles are merged
	// under the total order (distance, neighbour index).
	Workers int
}

// rollDot advances a diagonal dot product one cell: the window pair
// (i, j) slides to (i+1, j+1), dropping the products of the elements that
// leave and entering the ones that arrive.  Every path that walks a matrix
// diagonal — the self-join and AB-join tile walkers and the STOMPI append
// in Incremental — MUST roll through this one function: byte-identity
// between the batch and incremental profiles depends on every cell's dot
// being computed by the same compiled expression (so e.g. a platform's
// fused-multiply-add decisions apply identically), not merely the same
// formula written twice.
//
//ips:hotpath
func rollDot(dot, aOld, bOld, aNew, bNew float64) float64 {
	return dot + (aNew*bNew - aOld*bOld)
}

// tile is a half-open range [lo, hi) of diagonal offsets.
type tile struct{ lo, hi int }

// cutTiles partitions the diagonal offsets [lo, hi) into tiles of roughly
// equal cell count, so dynamic tile scheduling stays balanced even though
// early diagonals of a self-join are much longer than late ones.  cells(k)
// returns the number of matrix cells on diagonal k; tilesPerWorker comes
// from the cell-budget rule (see tiles.go) and is purely a scheduling
// knob — the profile is byte-identical for any value.
func cutTiles(lo, hi, workers, tilesPerWorker int, cells func(k int) int) []tile {
	if workers <= 1 {
		return []tile{{lo, hi}}
	}
	total := 0
	for k := lo; k < hi; k++ {
		total += cells(k)
	}
	target := total/(workers*tilesPerWorker) + 1
	var out []tile
	start, acc := lo, 0
	for k := lo; k < hi; k++ {
		acc += cells(k)
		if acc >= target {
			out = append(out, tile{start, k + 1})
			start, acc = k+1, 0
		}
	}
	if start < hi {
		out = append(out, tile{start, hi})
	}
	return out
}

// clampWorkers bounds the requested worker count to something useful for
// ndiags diagonals.
func clampWorkers(workers, ndiags int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > ndiags {
		workers = ndiags
	}
	return workers
}

// runTiles deals the tiles to workers through the shared pool (par.Run),
// each worker accumulating into its own partial profile from the shared
// arena, and returns the partials for merging.  walk must be safe to call
// concurrently for distinct partials; tiles are dealt dynamically, which is
// safe because the merge order (not the schedule) defines the result.
//
// Cancellation is cooperative at tile granularity: once ctx is done the pool
// deals no more tiles, bounding cancellation latency to one in-flight tile
// per worker.  The caller must check ctx after runTiles and discard the
// (incomplete) partials on cancellation.
func runTiles(ctx context.Context, workers int, tiles []tile, n int, walk func(pt *partial, tl tile)) []*partial {
	parts := make([]*partial, workers)
	for wi := range parts {
		parts[wi] = getPartial(n)
	}
	par.Run(ctx, workers, len(tiles), func(w int, next func() (int, bool)) {
		for ti, ok := next(); ok; ti, ok = next() {
			walk(parts[w], tiles[ti])
		}
	})
	return parts
}

// finishTiles either merges the partials into p or, when ctx was cancelled
// mid-join, returns every partial to the arena unmerged and reports the
// cancellation as a typed error.
func finishTiles(ctx context.Context, parts []*partial, p *Profile, op string) (*Profile, error) {
	if err := errs.Ctx(ctx, errs.StageKernel, op); err != nil {
		for _, pt := range parts {
			if pt != nil {
				putPartial(pt)
			}
		}
		return nil, err
	}
	mergePartials(parts, p)
	return p, nil
}

// mergePartials min-reduces the partial profiles into prof (squared
// distances), then converts to distances in place, under the same total
// order as partial.update, so the result is independent of the worker count
// and the tile schedule.
func mergePartials(parts []*partial, prof *Profile) {
	mergeRange(parts, prof)
	for _, pt := range parts {
		putPartial(pt)
	}
}

// mergeRange min-reduces every position of the partials into prof.  Runs
// once per output position across the whole profile — it must not allocate.
//
//ips:hotpath
func mergeRange(parts []*partial, prof *Profile) {
	for pos := range prof.P {
		best, bestIdx := math.Inf(1), -1
		for _, pt := range parts {
			d, idx := pt.p[pos], pt.i[pos]
			//lint:ignore ipslint/floateq cell distances are bitwise reproducible across workers, so an exact tie means the same value reached via two neighbours; the lower index wins by definition
			if d < best || (d == best && idx >= 0 && (bestIdx < 0 || idx < bestIdx)) {
				best, bestIdx = d, idx
			}
		}
		if math.IsInf(best, 1) {
			prof.P[pos] = best
		} else {
			prof.P[pos] = math.Sqrt(best)
		}
		prof.I[pos] = bestIdx
	}
}

// SelfJoinCtx computes the matrix profile of t with window w under
// z-normalised Euclidean distance, using a diagonal-tiled STOMP kernel:
// the strict upper triangle of the distance matrix (offsets k > excl) is
// partitioned into contiguous diagonal tiles, each walked with the O(1)
// rolling dot-product recurrence
//
//	qt(i+1, j+1) = qt(i, j) − t[i]·t[j] + t[i+w]·t[j+w]
//
// into per-worker partial profiles, which are then min-reduced
// deterministically (ties on exact distance go to the lower neighbour
// index).  A tile's diagonals are walked four at a time, and a cell's
// distance is computed only where it can improve its row or column (see
// selfJoinWalker.walk4).  Subsequences within w/2 of the query (the
// standard exclusion zone, footnote 1 of the paper) are excluded, as are
// subsequences for which valid is false (nil means all valid).  A NaN or
// ±Inf anywhere in t is rejected as errs.ErrBadInput.
//
// Cancelling ctx stops the join at tile granularity and returns a nil
// profile with an error matching errs.ErrCanceled; no partial profile
// escapes, so callers never see a half-merged result.
//
//ips:blocking
func SelfJoinCtx(ctx context.Context, t []float64, w int, valid []bool, opt Options) (*Profile, error) {
	maxAbs, err := finiteMax(t, "mp.selfjoin")
	if err != nil {
		return nil, err
	}
	n := len(t) - w + 1
	if n <= 0 || w <= 0 {
		return &Profile{W: w}, nil
	}
	p := &Profile{P: make([]float64, n), I: make([]int, n), W: w}
	excl := w / 2
	if excl < 1 {
		excl = 1
	}
	lo := excl + 1 // first diagonal offset with a non-trivial pair
	if lo >= n {
		for i := range p.P {
			p.P[i] = math.Inf(1)
			p.I[i] = -1
		}
		return p, nil
	}
	means, stds := ts.MovingMeanStd(t, w)

	workers := clampWorkers(opt.Workers, n-lo)
	tiles := cutTiles(lo, n, workers, tilesPerWorker(workers, diagCells(lo, n)), func(k int) int { return n - k })
	obs.Log(ctx).Debug("stomp self-join", "op", "mp.selfjoin",
		"n", n, "w", w, "workers", workers, "tiles", len(tiles))

	wk := &selfJoinWalker{t: t, w: w, n: n, valid: valid, means: means, stds: stds,
		floors: float64(w)*maxAbs*maxAbs < 0x1p1000}
	parts := runTiles(ctx, workers, tiles, n, wk.walk)
	return finishTiles(ctx, parts, p, "mp.selfjoin")
}

// finiteMax returns the largest magnitude in t, or a typed errs.ErrBadInput
// naming the first NaN or ±Inf: one NaN poisons the sliding sums of every
// later window, so the joins reject it as NewIncremental does.
func finiteMax(t []float64, op string) (float64, error) {
	maxAbs := 0.0
	for idx, v := range t {
		if !isFinite(v) {
			return 0, errs.BadInput(errs.StageKernel, op, "", "non-finite value %v at index %d", v, idx)
		}
		maxAbs = max(maxAbs, math.Abs(v))
	}
	return maxAbs, nil
}

// selfJoinWalker is the STOMP tile kernel of SelfJoinCtx: the series and its
// sliding statistics, shared read-only across workers.
type selfJoinWalker struct {
	t           []float64
	w, n        int
	valid       []bool
	means, stds []float64
	// floors is whether exact raises correlation floors at all.  It holds
	// when w·max|t|² < 2¹⁰⁰⁰: then no dot product, mean, std or correlation
	// term of the join can overflow, so every num and den is finite.  Past
	// that, every floor stays −Inf and every cell goes exact.
	floors bool
}

// corrMargin is the slack of the skip test in selfJoinWalker.walk4; see
// corrFloor for why it makes the test exact.
const corrMargin = 0x1p-46

// corrFloor returns the correlation floor of a position whose squared
// nearest-neighbour distance so far is d:
//
//	c = 1 − d/(2w) − corrMargin,
//
// or −Inf when that is at or below −1.  A cell with correlation terms
// (num, den) from ts.CorrTerms, den > 0, can only reach d when
// num/den ≥ 1 − d/(2w), so the walker rules it out when num < den·c.  The
// proof that no rounding breaks this, with u = 2⁻⁵³ and num, den finite
// (both windows' std ≥ ts.FlatStd, so den ≥ w·10⁻²⁴ and den·c is 0 or a
// normal number, since a nonzero c is a multiple of 2⁻⁵³):
//
//   - The computed c is within 5u of the real 1 − d/(2w) − corrMargin: d/(2w)
//     ≤ 2 rounds by at most 2u, the two subtractions by u and 2u.
//   - num < fl(den·c) ≤ den·(c + u), since |c| < 1; so num/den < c + u, and
//     ZNormSqDistFromTerms' quotient q = fl(num/den) < c + 3u < 1, which
//     never clamps to 1.
//   - If q < −1 it clamps to −1 and the cell's distance is 4w.  But c > −1
//     means d < 4w − 2w·(corrMargin − 5u) < 4w, so the cell does not reach d.
//   - Otherwise the distance is fl(2w·fl(1 − q)) ≥ 2w·(1 − c − 3u)(1 − u)²
//     ≥ (d + 2w·(corrMargin − 8u))(1 − 2u), which exceeds d whenever
//     2w·(corrMargin − 8u)(1 − 2u) > 2u·d; with d < 4w that needs
//     corrMargin > 12u + O(u²).  corrMargin = 128u holds it ten times over.
//
// So a ruled-out cell's distance is strictly greater than d: it would lose
// partial.update's comparison, exact ties to a lower index included, and
// skipping it leaves the partial as the per-cell walk leaves it.  At or
// below −1 the floor is −Inf instead, so a cell whose quotient clamps to −1,
// a 4w tie, always reaches the exact step.
//
// The STOMPI append (Incremental.appendPoint) rules a cell out against two
// floors: its old window's, from that window's profile entry, and the new
// window's, from the best distance its row has found so far.  Both of the
// append's comparisons are a strict `<`, because the new window's index is
// the largest in play, so a cell strictly greater than both distances
// changes neither, and the test needs no tie clause there.
func corrFloor(d float64, w int) float64 {
	c := 1 - d/float64(2*w) - corrMargin
	if c <= -1 {
		return math.Inf(-1)
	}
	return c
}

// walk drains one diagonal tile into pt: four diagonals at a time in
// lockstep (walk4), then the tile's last one to three diagonals one by one
// (walkDiag).  This is the innermost loop of the whole pipeline — it runs
// once per matrix cell — so it must not allocate.
//
//ips:hotpath
func (wk *selfJoinWalker) walk(pt *partial, tl tile) {
	k := tl.lo
	for ; k+4 <= tl.hi; k += 4 {
		wk.walk4(pt, k)
	}
	for ; k < tl.hi; k++ {
		wk.walkDiag(pt, k, 0, wk.seed(k))
	}
}

// walk4 walks diagonals k..k+3 in lockstep: four independent rollDot chains,
// one per diagonal, over the cells all four have, then each longer
// diagonal's last cells through walkDiag.  Every dot is the same rollDot
// chain from the same seed as a one-diagonal walk, so every cell sees the
// same bits.
//
// A cell reaches the exact step only when the division-free test of
// corrFloor cannot rule out that it improves row i or column j.  Both
// floors come from pt and never overstate what the exact step would find:
// a floor read before an earlier lane's exact step raised it is merely
// lower.  A floor of −Inf rules nothing out (num < den·(−Inf) is false
// for any num when den ≥ 0 or NaN), and it stays −Inf at a position with
// a constant window (std < ts.FlatStd, or NaN) and everywhere in a join
// whose num or den could be non-finite (see floors), so those cells always
// go exact.
//
//ips:hotpath
func (wk *selfJoinWalker) walk4(pt *partial, k int) {
	t, w, fw := wk.t, wk.w, float64(wk.w)
	means, stds, valid, c := wk.means, wk.stds, wk.valid, pt.c
	d0, d1, d2, d3 := wk.seed(k), wk.seed(k+1), wk.seed(k+2), wk.seed(k+3)
	end := wk.n - k - 3 // cells on diagonal k+3, the shortest of the four
	for i := 0; i < end; i++ {
		j := k + i
		if i > 0 {
			a, b := t[i-1], t[i+w-1]
			lo, hi := t[j-1:j+3:j+3], t[j+w-1:j+w+3:j+w+3]
			d0 = rollDot(d0, a, lo[0], b, hi[0])
			d1 = rollDot(d1, a, lo[1], b, hi[1])
			d2 = rollDot(d2, a, lo[2], b, hi[2])
			d3 = rollDot(d3, a, lo[3], b, hi[3])
		}
		if valid != nil && !valid[i] {
			continue
		}
		mi, si, ci := means[i], stds[i], c[i]
		mj, sj, cj := means[j:j+4:j+4], stds[j:j+4:j+4], c[j:j+4:j+4]
		var vj []bool
		if valid != nil {
			vj = valid[j : j+4 : j+4]
		}
		if vj == nil || vj[0] {
			num, den := ts.CorrTerms(d0, fw, mi, si, mj[0], sj[0])
			if !(num < den*ci && num < den*cj[0]) {
				wk.exact(pt, i, j, d0)
			}
		}
		if vj == nil || vj[1] {
			num, den := ts.CorrTerms(d1, fw, mi, si, mj[1], sj[1])
			if !(num < den*ci && num < den*cj[1]) {
				wk.exact(pt, i, j+1, d1)
			}
		}
		if vj == nil || vj[2] {
			num, den := ts.CorrTerms(d2, fw, mi, si, mj[2], sj[2])
			if !(num < den*ci && num < den*cj[2]) {
				wk.exact(pt, i, j+2, d2)
			}
		}
		if vj == nil || vj[3] {
			num, den := ts.CorrTerms(d3, fw, mi, si, mj[3], sj[3])
			if !(num < den*ci && num < den*cj[3]) {
				wk.exact(pt, i, j+3, d3)
			}
		}
	}
	// Diagonal k has three cells past the shortest, k+1 two and k+2 one.
	i, j := end, k+end
	wk.walkDiag(pt, k, i, wk.next(d0, i, j))
	wk.walkDiag(pt, k+1, i, wk.next(d1, i, j+1))
	wk.walkDiag(pt, k+2, i, wk.next(d2, i, j+2))
}

// walkDiag walks diagonal k from cell (i, k+i), whose dot product is dot,
// to its end, one cell at a time through the exact step.
//
//ips:hotpath
func (wk *selfJoinWalker) walkDiag(pt *partial, k, i int, dot float64) {
	for j := k + i; ; {
		if wk.valid == nil || wk.valid[i] && wk.valid[j] {
			wk.exact(pt, i, j, dot)
		}
		i, j = i+1, j+1
		if j >= wk.n {
			return
		}
		dot = wk.next(dot, i, j)
	}
}

// seed returns the dot product of diagonal k's first cell (0, k), the
// value the STOMPI append seeds a diagonal with.  Each diagonal is walked
// once, so computing it here costs what a precomputed row of seeds would,
// without allocating one per join.
func (wk *selfJoinWalker) seed(k int) float64 {
	return ts.Dot(wk.t[:wk.w], wk.t[k:k+wk.w])
}

// next rolls the dot product of cell (i−1, j−1) one step down its diagonal
// to cell (i, j).
func (wk *selfJoinWalker) next(dot float64, i, j int) float64 {
	t, w := wk.t, wk.w
	return rollDot(dot, t[i-1], t[j-1], t[i+w-1], t[j+w-1])
}

// exact is the per-cell step: the cell's squared distance (what
// ts.ZNormSqDistFromStats computes), offered to row i and column j, and the
// floor of each position it improves.
func (wk *selfJoinWalker) exact(pt *partial, i, j int, dot float64) {
	fw, si, sj := float64(wk.w), wk.stds[i], wk.stds[j]
	num, den := ts.CorrTerms(dot, fw, wk.means[i], si, wk.means[j], sj)
	d := ts.ZNormSqDistFromTerms(num, den, fw, si, sj)
	if pt.update(i, d, j) && wk.floors && wk.stds[i] >= ts.FlatStd {
		pt.c[i] = corrFloor(d, wk.w)
	}
	if pt.update(j, d, i) && wk.floors && wk.stds[j] >= ts.FlatStd {
		pt.c[j] = corrFloor(d, wk.w)
	}
}

// ABJoinCtx computes, for every length-w subsequence of a, its
// nearest-neighbour z-normalised distance among the subsequences of b (the
// paper's P_AB), with the same diagonal-tiled kernel as SelfJoinCtx: the
// na×nb cross matrix is cut along its diagonals j−i = k ∈ (−na, nb), each
// walked with the rolling dot-product recurrence into per-worker partials.
// No exclusion zone applies because the two series are distinct.
// validA/validB optionally mask boundary-spanning subsequences.  Every
// valid cell goes through the exact distance.  Non-finite values and
// cancellation behave exactly as in SelfJoinCtx.
//
//ips:blocking
func ABJoinCtx(ctx context.Context, a, b []float64, w int, validA, validB []bool, opt Options) (*Profile, error) {
	if _, err := finiteMax(a, "mp.abjoin"); err != nil {
		return nil, err
	}
	if _, err := finiteMax(b, "mp.abjoin"); err != nil {
		return nil, err
	}
	na := len(a) - w + 1
	nb := len(b) - w + 1
	if na <= 0 || nb <= 0 || w <= 0 {
		return &Profile{W: w}, nil
	}
	meansA, stdsA := ts.MovingMeanStd(a, w)
	meansB, stdsB := ts.MovingMeanStd(b, w)
	ab := ts.SlidingDots(a[:w], b) // ab[k]  = dot(a[0:w], b[k:k+w]), diagonals k >= 0
	ba := ts.SlidingDots(b[:w], a) // ba[i0] = dot(a[i0:i0+w], b[0:w]), diagonals k < 0

	p := &Profile{P: make([]float64, na), I: make([]int, na), W: w}
	// Diagonal offsets k are shifted by (na−1) so the tile range is [0, nd).
	nd := na + nb - 1
	wk := &abJoinWalker{
		a: a, b: b, w: w, na: na, nb: nb,
		validA: validA, validB: validB, ab: ab, ba: ba,
		meansA: meansA, stdsA: stdsA, meansB: meansB, stdsB: stdsB,
	}
	workers := clampWorkers(opt.Workers, nd)
	// Every cross-matrix cell lies on exactly one diagonal: na·nb total.
	tiles := cutTiles(0, nd, workers, tilesPerWorker(workers, na*nb), wk.diagLen)
	obs.Log(ctx).Debug("stomp ab-join", "op", "mp.abjoin",
		"na", na, "nb", nb, "w", w, "workers", workers, "tiles", len(tiles))

	parts := runTiles(ctx, workers, tiles, na, wk.walk)
	return finishTiles(ctx, parts, p, "mp.abjoin")
}

// abJoinWalker is the STOMP tile kernel of ABJoinCtx: both series, their
// sliding statistics, and the seed dot products for positive (ab) and
// negative (ba) diagonals, shared read-only across workers.
type abJoinWalker struct {
	a, b           []float64
	w, na, nb      int
	validA, validB []bool
	ab, ba         []float64
	meansA, stdsA  []float64
	meansB, stdsB  []float64
}

// diagLen returns the number of cells on shifted diagonal s.
func (wk *abJoinWalker) diagLen(s int) int {
	k := s - (wk.na - 1)
	i0, j0 := 0, k
	if k < 0 {
		i0, j0 = -k, 0
	}
	la, lb := wk.na-i0, wk.nb-j0
	if la < lb {
		return la
	}
	return lb
}

// walk drains one diagonal tile of the cross matrix into pt.  Like the
// self-join kernel it runs once per cell and must not allocate.
//
//ips:hotpath
func (wk *abJoinWalker) walk(pt *partial, tl tile) {
	a, b, w, fw := wk.a, wk.b, wk.w, float64(wk.w)
	for s := tl.lo; s < tl.hi; s++ {
		k := s - (wk.na - 1)
		i0, j0 := 0, k
		dot := 0.0
		if k < 0 {
			i0, j0 = -k, 0
			dot = wk.ba[i0]
		} else {
			dot = wk.ab[j0]
		}
		count := wk.diagLen(s)
		for c := 0; c < count; c++ {
			i, j := i0+c, j0+c
			if c > 0 {
				dot = rollDot(dot, a[i-1], b[j-1], a[i+w-1], b[j+w-1])
			}
			if wk.validA != nil && !wk.validA[i] || wk.validB != nil && !wk.validB[j] {
				continue
			}
			num, den := ts.CorrTerms(dot, fw, wk.meansA[i], wk.stdsA[i], wk.meansB[j], wk.stdsB[j])
			d := ts.ZNormSqDistFromTerms(num, den, fw, wk.stdsA[i], wk.stdsB[j])
			pt.update(i, d, j)
		}
	}
}
