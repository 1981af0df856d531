package dist

import (
	"context"

	"ips/internal/errs"
	"ips/internal/obs"
)

// Batch is a set of queries prepared for evaluation against many series:
// each query's energy Σq² and its finiteness are computed once, and every
// query then runs the same per-query path as Prepared.Dist.  A Batch is
// immutable after construction and safe for concurrent EvalScratchCtx calls
// (one Scratch per goroutine) against different (or the same) Prepared
// series.
type Batch struct {
	queries [][]float64
	qq      []float64
	finite  []bool
}

// NewBatch prepares the queries for repeated evaluation.  The batch aliases
// the query slices; they must not be mutated while the batch is in use.
func NewBatch(queries [][]float64) *Batch {
	b := &Batch{
		queries: queries,
		qq:      make([]float64, len(queries)),
		finite:  make([]bool, len(queries)),
	}
	for i, q := range queries {
		b.qq[i] = sumSq(q)
		b.finite[i] = finiteTotal(b.qq[i])
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
// Cancellation is cooperative at query granularity: the context is checked
// before each query, and once it is done the remaining queries are skipped
// and an error matching errs.ErrCanceled is returned.  On cancellation out
// holds the completed queries' values and arbitrary (stale) values for the
// rest; callers must discard it.
//
//ips:blocking
func (b *Batch) EvalScratchCtx(ctx context.Context, p *Prepared, out []float64, c *Counts, s *Scratch) error {
	if c == nil {
		c = &Counts{}
	}
	if s == nil {
		s = &Scratch{}
	}
	for qi, q := range b.queries {
		if err := errs.Ctx(ctx, errs.StageKernel, "dist.batch"); err != nil {
			b.logCanceled(ctx)
			return err
		}
		out[qi] = p.eval(q, b.qq[qi], b.finite[qi], s, c)
	}
	return nil
}

// logCanceled exists to keep its variadic ...any arguments — which box one
// interface value per argument per call — out of EvalScratchCtx's query
// loop; in this straight-line body the boxing happens once per cancellation
// instead of per iteration.
func (b *Batch) logCanceled(ctx context.Context) {
	obs.Log(ctx).Debug("batch evaluation canceled",
		"op", "dist.batch", "queries", len(b.queries))
}
