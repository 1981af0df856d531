package baselines

import (
	"context"

	"ips/internal/dist"
	"ips/internal/ts"
)

// distMatrix evaluates every query against every training instance (or the
// subset named by idx; nil means all, in dataset order) and returns
// D[query][position], where position follows idx.  Each entry is
// byte-identical to ts.Dist(query, instance), but the work is batched: one
// engine pass per instance shares the per-length sliding statistics and the
// padded series FFT across all queries, instead of re-deriving them per
// (candidate, instance) pair.  An optional cache reuses prepared series
// across calls (tree growers revisit instances node after node); nil
// prepares per instance.
//
// Cancellation flows into the engine: once ctx is done the current instance
// pass stops at its next length-group boundary and distMatrix returns a nil
// matrix with an error matching errs.ErrCanceled.
func distMatrix(ctx context.Context, train *ts.Dataset, idx []int, queries [][]float64, cache *dist.Cache) ([][]float64, error) {
	if idx == nil {
		idx = make([]int, train.Len())
		for i := range idx {
			idx[i] = i
		}
	}
	D := make([][]float64, len(queries))
	for qi := range D {
		D[qi] = make([]float64, len(idx))
	}
	batch := dist.NewBatch(queries)
	col := make([]float64, len(queries))
	var counts dist.Counts
	var scratch dist.Scratch
	for pos, i := range idx {
		p := cache.Prepared(train.Instances[i].Values, &counts)
		if err := batch.EvalScratchCtx(ctx, p, col, &counts, &scratch); err != nil {
			return nil, err
		}
		for qi := range queries {
			D[qi][pos] = col[qi]
		}
	}
	return D, nil
}
