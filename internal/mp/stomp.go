package mp

import (
	"context"
	"math"
	"sync"

	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/ts"
)

// Options configures a join kernel invocation.  The zero value reproduces
// the historical sequential behaviour.
type Options struct {
	// Workers is the number of goroutines walking diagonal tiles (<=1 means
	// sequential).  The kernel is worker-count invariant: the profile is
	// byte-identical for every value of Workers, because each diagonal's
	// rolling dot product is walked by exactly one goroutine (so every cell
	// distance is bitwise reproducible) and the partial profiles are merged
	// under the total order (distance, neighbour index).
	Workers int
	// Span, when non-nil, receives a child span per join with size/tile
	// attributes and one sub-span per worker (see internal/obs).
	Span *obs.Span
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

// runTiles drains the tile set with workers goroutines, each accumulating
// into its own partial profile from the shared arena, and returns the
// partials for merging.  walk must be safe to call concurrently for
// distinct partials; tiles are handed out dynamically, which is safe
// because the merge order (not the schedule) defines the result.
//
// Cancellation is cooperative at tile granularity: once ctx is done the
// workers keep draining the channel (so the producer never blocks on an
// abandoned send) but skip the walks, bounding cancellation latency to one
// in-flight tile per worker.  The caller must check ctx after runTiles and
// discard the (incomplete) partials on cancellation.
func runTiles(ctx context.Context, workers int, tiles []tile, n int, sp *obs.Span, walk func(pt *partial, tl tile)) []*partial {
	parts := make([]*partial, workers)
	if workers <= 1 {
		pt := getPartial(n)
		for _, tl := range tiles {
			if ctx.Err() != nil {
				break
			}
			walk(pt, tl)
		}
		parts[0] = pt
		return parts
	}
	ch := make(chan tile)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		parts[wi] = getPartial(n)
		wg.Add(1)
		go func(wi int, pt *partial) {
			defer wg.Done()
			wsp := sp.Child("worker")
			defer wsp.End()
			ntiles := 0
			for tl := range ch {
				if ctx.Err() != nil {
					continue // drain without working
				}
				walk(pt, tl)
				ntiles++
			}
			wsp.SetInt("worker", int64(wi))
			wsp.SetInt("tiles", int64(ntiles))
		}(wi, parts[wi])
	}
	for _, tl := range tiles {
		ch <- tl
	}
	close(ch)
	wg.Wait()
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
// index).  Subsequences within w/2 of the query (the standard exclusion
// zone, footnote 1 of the paper) are excluded, as are subsequences for
// which valid is false (nil means all valid).
//
// Cancelling ctx stops the join at tile granularity and returns a nil
// profile with an error matching errs.ErrCanceled; no partial profile
// escapes, so callers never see a half-merged result.
//
//ips:blocking
func SelfJoinCtx(ctx context.Context, t []float64, w int, valid []bool, opt Options) (*Profile, error) {
	n := len(t) - w + 1
	if n <= 0 || w <= 0 {
		return &Profile{W: w}, nil
	}
	sp := opt.Span.Child("mp.selfjoin")
	defer sp.End()
	sp.SetInt("n", int64(n))
	sp.SetInt("w", int64(w))

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
	first := ts.SlidingDots(t[:w], t) // first[k] = dot(t[0:w], t[k:k+w])

	workers := clampWorkers(opt.Workers, n-lo)
	tiles := cutTiles(lo, n, workers, tilesPerWorker(workers, diagCells(lo, n)), func(k int) int { return n - k })
	sp.SetInt("workers", int64(workers))
	sp.SetInt("tiles", int64(len(tiles)))
	obs.Log(ctx).Debug("stomp self-join", "op", "mp.selfjoin",
		"n", n, "w", w, "workers", workers, "tiles", len(tiles))

	wk := &selfJoinWalker{t: t, w: w, n: n, valid: valid, first: first, means: means, stds: stds}
	parts := runTiles(ctx, workers, tiles, n, sp, wk.walk)
	return finishTiles(ctx, parts, p, "mp.selfjoin")
}

// selfJoinWalker is the STOMP tile kernel of SelfJoinCtx: the series, its
// sliding statistics, and the seed dot products, shared read-only across
// workers.
type selfJoinWalker struct {
	t           []float64
	w, n        int
	valid       []bool
	first       []float64
	means, stds []float64
}

// walk drains one diagonal tile into pt with the O(1) rolling dot-product
// recurrence.  This is the innermost loop of the whole pipeline — it runs
// once per matrix cell — so it must not allocate.
//
//ips:hotpath
func (wk *selfJoinWalker) walk(pt *partial, tl tile) {
	t, w, n := wk.t, wk.w, wk.n
	for k := tl.lo; k < tl.hi; k++ {
		dot := wk.first[k]
		for i, j := 0, k; j < n; i, j = i+1, j+1 {
			if i > 0 {
				dot = rollDot(dot, t[i-1], t[j-1], t[i+w-1], t[j+w-1])
			}
			if wk.valid != nil && (!wk.valid[i] || !wk.valid[j]) {
				continue
			}
			d := ts.ZNormSqDistFromStats(dot, w, wk.means[i], wk.stds[i], wk.means[j], wk.stds[j])
			pt.update(i, d, j)
			pt.update(j, d, i)
		}
	}
}

// ABJoinCtx computes, for every length-w subsequence of a, its
// nearest-neighbour z-normalised distance among the subsequences of b (the
// paper's P_AB), with the same diagonal-tiled kernel as SelfJoinCtx: the
// na×nb cross matrix is cut along its diagonals j−i = k ∈ (−na, nb), each
// walked with the rolling dot-product recurrence into per-worker partials.
// No exclusion zone applies because the two series are distinct.
// validA/validB optionally mask boundary-spanning subsequences.
// Cancellation behaves exactly as in SelfJoinCtx.
//
//ips:blocking
func ABJoinCtx(ctx context.Context, a, b []float64, w int, validA, validB []bool, opt Options) (*Profile, error) {
	na := len(a) - w + 1
	nb := len(b) - w + 1
	if na <= 0 || nb <= 0 || w <= 0 {
		return &Profile{W: w}, nil
	}
	sp := opt.Span.Child("mp.abjoin")
	defer sp.End()
	sp.SetInt("na", int64(na))
	sp.SetInt("nb", int64(nb))
	sp.SetInt("w", int64(w))

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
	sp.SetInt("workers", int64(workers))
	sp.SetInt("tiles", int64(len(tiles)))
	obs.Log(ctx).Debug("stomp ab-join", "op", "mp.abjoin",
		"na", na, "nb", nb, "w", w, "workers", workers, "tiles", len(tiles))

	parts := runTiles(ctx, workers, tiles, na, sp, wk.walk)
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
	a, b, w := wk.a, wk.b, wk.w
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
			d := ts.ZNormSqDistFromStats(dot, w, wk.meansA[i], wk.stdsA[i], wk.meansB[j], wk.stdsB[j])
			pt.update(i, d, j)
		}
	}
}
