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
// sequential, auto-kernel transform.
type TransformConfig struct {
	// Workers is the per-instance embedding fan-out (<=1 means sequential).
	// Output is identical for any value.
	Workers int
	// Span receives the embedding-shape and kernel-mix attributes.
	Span *obs.Span
	// Kernel forces the distance kernel (dist.KernelAuto selects per query
	// length).  Kernel choice never changes results.
	Kernel dist.Kernel
	// Precision is an empty placeholder: the engine has one arithmetic,
	// byte-identical to ts.Dist.
	//
	// Deprecated: nothing reads it, and it will be removed.
	Precision struct{}
}

// TransformWith is the shapelet transform with cooperative cancellation and
// the full engine configuration.
//
// Each instance's embedding row is one batched engine evaluation: the
// shapelets are grouped by length once up front, and every row shares the
// per-(series, length) sliding statistics.  Each worker owns a dist.Scratch
// arena, so the per-group working set is allocated once per worker and
// reused across every instance.  The output is byte-identical to the
// per-pair ts.Dist loop for any worker count and either kernel.
//
// Cancellation is checked per instance: once ctx is done the workers keep
// draining the job channel (so the producer never blocks) but skip the
// embeddings, and TransformWith returns a nil matrix with an error matching
// errs.ErrCanceled.  No partially-written matrix escapes.
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
	batch.SetKernel(cfg.Kernel)
	out := make([][]float64, len(d.Instances))
	var total dist.Counts
	embed := func(j int, c *dist.Counts, s *dist.Scratch) error {
		row := make([]float64, len(shapelets))
		if err := embedRow(ctx, batch, d.Instances[j].Values, row, c, s); err != nil {
			return err // cancellation mid-row: row is partial, drop it
		}
		out[j] = row
		return nil
	}
	if workers <= 1 || len(d.Instances) < 2 {
		var scratch dist.Scratch
		for j := range d.Instances {
			if err := errs.Ctx(ctx, errs.StageTransform, "classify.transform"); err != nil {
				return nil, err
			}
			if err := embed(j, &total, &scratch); err != nil {
				return nil, err
			}
		}
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		ch := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local dist.Counts
				var scratch dist.Scratch
				for j := range ch {
					if ctx.Err() != nil {
						continue // drain without working
					}
					if err := embed(j, &local, &scratch); err != nil {
						continue // the post-Wait ctx check reports it
					}
				}
				mu.Lock()
				total.Merge(local)
				mu.Unlock()
			}()
		}
		for j := range d.Instances {
			ch <- j
		}
		close(ch)
		wg.Wait()
		if err := errs.Ctx(ctx, errs.StageTransform, "classify.transform"); err != nil {
			return nil, err
		}
	}
	total.Annotate(sp)
	total.AddTo(sp.Metrics())
	obs.Log(ctx).Debug("shapelet transform done", "op", "classify.transform",
		"instances", len(d.Instances), "shapelets", len(shapelets),
		"workers", max(workers, 1), "rolling", total.Rolling, "fft", total.FFT)
	return out, nil
}

// embedRow fills row with one instance's shapelet-transform embedding: a
// single batched engine evaluation against the instance's prepared series,
// drawing its working set from the worker's scratch arena.  This is the
// transform's per-instance scoring path — everything it calls must stay
// allocation-free inside its loops.
//
//ips:hotpath
func embedRow(ctx context.Context, batch *dist.Batch, series []float64, row []float64, c *dist.Counts, s *dist.Scratch) error {
	return batch.EvalScratchCtx(ctx, dist.Prepare(series), row, c, s)
}

// DefaultKernel is the kernel every pipeline transform runs with: the
// engine's per-query-length choice.  Kernel choice never changes results;
// TransformConfig.Kernel forces one for measurement and the byte-identity
// tests.
const DefaultKernel = dist.KernelAuto

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
