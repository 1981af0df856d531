// Package classify provides the classification substrate: the shapelet
// transform (Def. 7 of the IPS paper), a one-vs-rest linear SVM trained by
// dual coordinate descent (the paper's final classifier), 1NN-ED and
// 1NN-DTW baselines (Table II/VI), and evaluation helpers.
package classify

import (
	"context"
	"errors"
	"math"
	"sync"

	"ips/internal/dist"
	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/par"
	"ips/internal/ts"
)

// Shapelet is a discovered shapelet: a subsequence representing a class.
type Shapelet struct {
	Class  int
	Values ts.Series
	// Score is the utility the discovery method assigned (higher = better);
	// informational only.
	Score float64
}

// TransformConfig parameterises TransformWith.  The zero value is a
// sequential transform.
type TransformConfig struct {
	// Workers is the per-instance embedding fan-out (<=1 means sequential).
	// Output is identical for any value.
	Workers int
	// Span receives the embedding-shape and kernel-mix attributes.
	Span *obs.Span
	// Kernel is an empty placeholder: the engine has one kernel.
	//
	// Deprecated: nothing reads it, and it will be removed.
	Kernel struct{}
	// Precision is an empty placeholder: the engine has one arithmetic,
	// byte-identical to ts.Dist.
	//
	// Deprecated: nothing reads it, and it will be removed.
	Precision struct{}
}

// TransformWith is the shapelet transform with cooperative cancellation and
// the full engine configuration.
//
// Each instance's embedding row is one batched engine evaluation: every
// shapelet's energy is computed once up front, and each row prepares its
// instance's prefix sums once and shares them across every shapelet.  The
// instances are dealt to cfg.Workers workers of the shared pool (par.Run);
// each worker owns a dist.Scratch arena, so the working set is allocated
// once per worker and reused across every instance.  The output is
// byte-identical to the per-pair ts.Dist loop for any worker count.
//
// Cancellation is checked per instance, and per shapelet inside each row:
// once ctx is done the pool deals no more instances, and TransformWith
// returns a nil matrix with an error matching errs.ErrCanceled.  No
// partially-written matrix escapes.
func TransformWith(ctx context.Context, d *ts.Dataset, shapelets []Shapelet, cfg TransformConfig) ([][]float64, error) {
	workers, sp := cfg.Workers, cfg.Span
	sp.SetInt("instances", int64(len(d.Instances)))
	sp.SetInt("shapelets", int64(len(shapelets)))
	sp.SetInt("workers", int64(max(workers, 1)))
	sp.Metrics().Counter("classify.transform.dists").Add(int64(len(d.Instances)) * int64(len(shapelets)))
	queries := make([][]float64, len(shapelets))
	for i, s := range shapelets {
		queries[i] = s.Values
	}
	batch := dist.NewBatch(queries)
	out := make([][]float64, len(d.Instances))
	var total dist.Counts
	var mu sync.Mutex
	par.Run(ctx, workers, len(d.Instances), func(_ int, next func() (int, bool)) {
		var local dist.Counts
		var scratch dist.Scratch
		for j, ok := next(); ok; j, ok = next() {
			row := make([]float64, len(shapelets))
			if embedRow(ctx, batch, d.Instances[j].Values, row, &local, &scratch) == nil {
				out[j] = row // a row cut short by cancellation is dropped below
			}
		}
		mu.Lock()
		total.Merge(local)
		mu.Unlock()
	})
	if err := errs.Ctx(ctx, errs.StageTransform, "classify.transform"); err != nil {
		return nil, err
	}
	total.Annotate(sp)
	total.AddTo(sp.Metrics())
	obs.Log(ctx).Debug("shapelet transform done", "op", "classify.transform",
		"instances", len(d.Instances), "shapelets", len(shapelets),
		"workers", max(workers, 1), "rolling", total.Rolling)
	return out, nil
}

// embedRow fills row with one instance's shapelet-transform embedding: a
// single batched engine evaluation against the instance, which is prepared
// in the worker's scratch arena with the rest of the working set.  This is the
// transform's per-instance scoring path — everything it calls must stay
// allocation-free inside its loops.
//
//ips:hotpath
func embedRow(ctx context.Context, batch *dist.Batch, series []float64, row []float64, c *dist.Counts, s *dist.Scratch) error {
	return batch.EvalScratchCtx(ctx, s.Prepare(series), row, c, s)
}

// DefaultKernel is an empty placeholder for TransformConfig.Kernel.
//
// Deprecated: nothing reads it, and it will be removed.
var DefaultKernel struct{}

// Scaler standardises features to zero mean and unit variance, fitted on
// training data and applied to both splits.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-feature mean and std over X.
func FitScaler(X [][]float64) (*Scaler, error) {
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, errors.New("classify: empty feature matrix")
	}
	k := len(X[0])
	s := &Scaler{Mean: make([]float64, k), Std: make([]float64, k)}
	for _, row := range X {
		for i, v := range row {
			s.Mean[i] += v
		}
	}
	n := float64(len(X))
	for i := range s.Mean {
		s.Mean[i] /= n
	}
	for _, row := range X {
		for i, v := range row {
			d := v - s.Mean[i]
			s.Std[i] += d * d
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] / n)
		if s.Std[i] < 1e-12 {
			s.Std[i] = 1
		}
	}
	return s, nil
}

// Apply returns a standardised copy of X.
func (s *Scaler) Apply(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for j, row := range X {
		r := make([]float64, len(row))
		for i, v := range row {
			r[i] = (v - s.Mean[i]) / s.Std[i]
		}
		out[j] = r
	}
	return out
}

// ApplyRowInto standardises one feature row into dst (len(dst) must equal
// len(row)).  It is the allocation-free single-row form of Apply for serving
// loops that own their output storage.
//
//ips:hotpath
func (s *Scaler) ApplyRowInto(dst, row []float64) {
	for i, v := range row {
		dst[i] = (v - s.Mean[i]) / s.Std[i]
	}
}

// Accuracy returns the fraction of predictions matching the truth, in
// percent (the unit used throughout the paper's tables).
func Accuracy(pred, truth []int) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	hits := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hits++
		}
	}
	return 100 * float64(hits) / float64(len(pred))
}
