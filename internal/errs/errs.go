// Package errs defines the structured error taxonomy of the IPS pipeline.
//
// Every failure crossing a package boundary is an *Error carrying the
// pipeline stage it happened in, the operation, and (when known at the
// boundary) the dataset name, wrapping a sentinel that classifies the
// failure.  Callers branch with errors.Is on the sentinels and recover the
// annotation with errors.As:
//
//	_, err := core.Fit(ctx, train, opt)
//	if errors.Is(err, errs.ErrCanceled) { ... }   // run was cancelled
//	if errors.Is(err, errs.ErrBadInput) { ... }   // caller's data is bad
//	var e *errs.Error
//	if errors.As(err, &e) { log.Printf("stage %s failed", e.Stage) }
//
// Cancellation errors wrap both ErrCanceled and the originating ctx.Err(),
// so errors.Is matches ErrCanceled, context.Canceled, and
// context.DeadlineExceeded as appropriate.
package errs

import (
	"context"
	"errors"
	"fmt"
)

// Stage identifies the pipeline stage an error originated in.  The values
// mirror the span names of internal/obs, so an error's Stage lines up with
// the span tree of the run that produced it.
type Stage string

const (
	// StageValidate covers input validation at API boundaries.
	StageValidate Stage = "validate"
	// StageCandidateGen covers Algorithm 1 (ip.GenerateSpan).
	StageCandidateGen Stage = "candidate-gen"
	// StagePruning covers DABF build + prune (Alg. 2+3) and NaivePrune.
	StagePruning Stage = "pruning"
	// StageSelection covers top-k selection (Alg. 4).
	StageSelection Stage = "selection"
	// StageTransform covers the shapelet-transform embedding.
	StageTransform Stage = "transform"
	// StageTrain covers scaler fitting and SVM training.
	StageTrain Stage = "train"
	// StagePredict covers model application.
	StagePredict Stage = "predict"
	// StageKernel covers the STOMP join and batched distance kernels.
	StageKernel Stage = "kernel"
	// StageData covers dataset loading and generation.
	StageData Stage = "data"
	// StageBench covers the experiment harness.
	StageBench Stage = "bench"
	// StageServe covers the model-serving daemon (internal/serve): request
	// admission, the per-model gate, and the model registry.
	StageServe Stage = "serve"
	// StageStream covers online ingest (internal/stream): incremental
	// profile maintenance, delta shapelet transform, and drift detection.
	StageStream Stage = "stream"
)

// Sentinel classification errors.  Every *Error wraps exactly one of these
// (possibly chained with further detail), so errors.Is always classifies.
var (
	// ErrCanceled marks a run stopped by context cancellation or deadline.
	// It always wraps the originating ctx.Err(), so errors.Is also matches
	// context.Canceled / context.DeadlineExceeded.
	ErrCanceled = errors.New("run canceled")
	// ErrBadInput marks failures caused by the caller's data: NaN/Inf
	// values, empty datasets, mismatched dimensions, series too short.
	ErrBadInput = errors.New("bad input")
	// ErrDegenerate marks statistically degenerate situations the pipeline
	// cannot fit a distribution to (e.g. a single-candidate class).
	ErrDegenerate = errors.New("degenerate statistics")
	// ErrNoShapelets marks a run in which selection produced no shapelets.
	ErrNoShapelets = errors.New("no shapelets discovered")
	// ErrInternal marks invariant violations that indicate a bug in the
	// pipeline itself rather than in the caller's data.
	ErrInternal = errors.New("internal invariant violation")
	// ErrOverload marks work rejected by backpressure: an admission queue
	// was full and accepting the request would have grown latency without
	// bound.  The serving layer maps it to HTTP 429.
	ErrOverload = errors.New("overloaded")
	// ErrUnavailable marks work refused because the serving surface (or the
	// model it names) is draining, retired, or not loaded.  The serving
	// layer maps it to HTTP 503.
	ErrUnavailable = errors.New("unavailable")
)

// Error is the structured pipeline error: a classification sentinel (via
// Err) annotated with where it happened.
type Error struct {
	Stage   Stage  // pipeline stage, e.g. StageCandidateGen
	Op      string // operation, e.g. "ip.generate"
	Dataset string // dataset name when known at the failing boundary
	Err     error  // wrapped cause; always chains to a sentinel
}

// Error formats as "ips: <stage>: <op> [<dataset>]: <cause>".
func (e *Error) Error() string {
	msg := "ips: " + string(e.Stage)
	if e.Op != "" {
		msg += ": " + e.Op
	}
	if e.Dataset != "" {
		msg += " [" + e.Dataset + "]"
	}
	return msg + ": " + e.Err.Error()
}

// Unwrap exposes the cause chain to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Wrap annotates err with stage/op/dataset, returning nil for nil.  An err
// that is already an *Error keeps its (more specific) stage and op; only a
// missing Dataset is filled in, so the dataset known at the outermost
// boundary reaches the caller without erasing where the failure happened.
func Wrap(stage Stage, op, dataset string, err error) error {
	if err == nil {
		return nil
	}
	if e, ok := err.(*Error); ok {
		if e.Dataset == "" && dataset != "" {
			return &Error{Stage: e.Stage, Op: e.Op, Dataset: dataset, Err: e.Err}
		}
		return err
	}
	return &Error{Stage: stage, Op: op, Dataset: dataset, Err: err}
}

// BadInput builds an ErrBadInput *Error with a formatted detail message.
func BadInput(stage Stage, op, dataset, format string, args ...any) error {
	return &Error{Stage: stage, Op: op, Dataset: dataset,
		Err: fmt.Errorf("%w: "+format, append([]any{ErrBadInput}, args...)...)}
}

// BadInputErr builds an ErrBadInput *Error around an existing cause (e.g. a
// ts.Dataset.Validate failure), keeping both in the chain.
func BadInputErr(stage Stage, op, dataset string, cause error) error {
	if cause == nil {
		return nil
	}
	return &Error{Stage: stage, Op: op, Dataset: dataset,
		Err: fmt.Errorf("%w: %w", ErrBadInput, cause)}
}

// Overload builds an ErrOverload *Error with a formatted detail message.
func Overload(stage Stage, op, dataset, format string, args ...any) error {
	return &Error{Stage: stage, Op: op, Dataset: dataset,
		Err: fmt.Errorf("%w: "+format, append([]any{ErrOverload}, args...)...)}
}

// Unavailable builds an ErrUnavailable *Error with a formatted detail message.
func Unavailable(stage Stage, op, dataset, format string, args ...any) error {
	return &Error{Stage: stage, Op: op, Dataset: dataset,
		Err: fmt.Errorf("%w: "+format, append([]any{ErrUnavailable}, args...)...)}
}

// Degenerate builds an ErrDegenerate *Error with a formatted detail message.
func Degenerate(stage Stage, op, dataset, format string, args ...any) error {
	return &Error{Stage: stage, Op: op, Dataset: dataset,
		Err: fmt.Errorf("%w: "+format, append([]any{ErrDegenerate}, args...)...)}
}

// Internal builds an ErrInternal *Error with a formatted detail message.
func Internal(stage Stage, op, format string, args ...any) error {
	return &Error{Stage: stage, Op: op,
		Err: fmt.Errorf("%w: "+format, append([]any{ErrInternal}, args...)...)}
}

// Canceled builds an ErrCanceled *Error around the context's error.  The
// chain wraps both ErrCanceled and cause, so errors.Is matches either.
func Canceled(stage Stage, op, dataset string, cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &Error{Stage: stage, Op: op, Dataset: dataset,
		Err: fmt.Errorf("%w: %w", ErrCanceled, cause)}
}

// Ctx is the cooperative cancellation check of the worker loops: nil while
// ctx is live, a Canceled *Error once it is done.  The ctx.Err() call takes
// a mutex in the runtime, so hot loops should call Ctx at a bounded
// granularity (per tile, per batch, per epoch) rather than per cell.
func Ctx(ctx context.Context, stage Stage, op string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return Canceled(stage, op, "", err)
	}
	return nil
}
