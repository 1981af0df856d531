package dist

import (
	"context"
	"math"
	"sort"

	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/ts"
)

// Batch is a set of queries prepared for evaluation against many series:
// per-query energies are precomputed and the queries are grouped by length,
// so the shape checks and the cancellation check run once per (series,
// length) group instead of once per query.  A Batch is immutable after
// construction and safe for concurrent EvalScratchCtx calls (one Scratch per
// goroutine) against different (or the same) Prepared series.
type Batch struct {
	queries [][]float64
	qq      []float64
	finite  []bool
	groups  []group
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

// EvalScratchCtx evaluates every query against p into out (which must hold
// Len() values), each byte-identical to ts.Dist(query, series), accumulating
// kernel accounting into c (nil is allowed).
//
// The working set comes from a caller-owned Scratch (nil means a fresh one
// per call): the profile buffer grows once inside s and is reused verbatim
// on the next call.  Callers that re-evaluate the same batch against a
// stream of series — the serve loop, CV folds — perform zero allocations
// after warm-up.  s must not be shared across goroutines.
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
		for _, qi := range g.idx {
			out[qi] = b.eval(p, qi, s, c)
		}
	}
	return nil
}

// eval evaluates query qi: ts.Dist for a non-finite query, otherwise its
// approximate profile refined exactly by profileMin.
//
//ips:hotpath
func (b *Batch) eval(p *Prepared, qi int, s *Scratch, c *Counts) float64 {
	q := b.queries[qi]
	if !b.finite[qi] {
		c.Exact++
		return ts.Dist(q, p.t)
	}
	w := len(p.t) - len(q) + 1
	if cap(s.dots) < w {
		s.dots = make([]float64, w)
	}
	prof := s.dots[:w]
	minHat := p.approxProfile(q, b.qq[qi], prof, c)
	return p.profileMin(q, b.qq[qi], prof, minHat, c)
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
