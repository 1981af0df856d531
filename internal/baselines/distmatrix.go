package baselines

import (
	"context"

	"ips/internal/dist"
	"ips/internal/ts"
)

// prepareAll prepares every training instance once, indexed like
// train.Instances, so the distance matrices of one fit share each series'
// prefix statistics.
func prepareAll(train *ts.Dataset) []*dist.Prepared {
	out := make([]*dist.Prepared, train.Len())
	for i, in := range train.Instances {
		out[i] = dist.Prepare(in.Values)
	}
	return out
}

// distMatrix evaluates every query against every training instance (or the
// subset named by idx; nil means all, in dataset order) and returns
// D[query][position], where position follows idx.  prepared holds the
// prepared training instances (see prepareAll), indexed by instance, not by
// position.  Each entry is byte-identical to ts.Dist(query, instance), but
// the work is batched: one engine pass per instance shares the series'
// prefix statistics and one profile buffer across all queries, instead of
// re-deriving them per (candidate, instance) pair.
//
// Cancellation flows into the engine: once ctx is done the current instance
// pass stops before its next query and distMatrix returns a nil matrix with
// an error matching errs.ErrCanceled.
func distMatrix(ctx context.Context, prepared []*dist.Prepared, idx []int, queries [][]float64) ([][]float64, error) {
	if idx == nil {
		idx = make([]int, len(prepared))
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
	var scratch dist.Scratch
	for pos, i := range idx {
		if err := batch.EvalScratchCtx(ctx, prepared[i], col, nil, &scratch); err != nil {
			return nil, err
		}
		for qi := range queries {
			D[qi][pos] = col[qi]
		}
	}
	return D, nil
}
