// Package ips is the public API of the IPS reproduction: instance-profile
// shapelet discovery for time series classification (Li et al., ICDE 2022).
//
// The pipeline has three stages.  Algorithm 1 generates shapelet candidates
// from instance profiles computed over bagging samples of each class;
// Algorithms 2 and 3 build a distribution-aware bloom filter (DABF) per
// class and prune candidates that are "possibly close to most elements" of
// another class; Algorithm 4 scores the survivors with three utility
// functions (intra-class, inter-class, intra-instance) — accelerated by the
// DT and CR optimisations — and keeps the top-k per class.  Classification
// is a shapelet transform followed by a linear SVM.
//
// Quick start:
//
//	train, test, _ := ips.GenerateDataset("ItalyPowerDemand", ips.GenConfig{})
//	model, _ := ips.Fit(context.Background(), train, ips.DefaultOptions())
//	pred, _ := model.Predict(context.Background(), test)
//
// Every pipeline entry point takes a context.Context first: cancelling it
// (or letting a deadline expire) stops the run cooperatively within one
// worker batch and returns an error matching ErrCanceled.  Failures are
// typed — inspect them with errors.Is against the Err* sentinels or
// errors.As against *Error.
//
// The internal packages implement every substrate from scratch: matrix
// profiles (STOMP), instance profiles, LSH families, the DABF, distribution
// fitting, SVM/1NN classifiers, and the BASE and BSPCOVER baselines of the
// paper's evaluation.  See DESIGN.md for the full inventory and
// EXPERIMENTS.md for paper-versus-measured results.
package ips

import (
	"context"
	"net/http"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/errs"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/stream"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// Re-exported core types.  The aliases give external callers legal names for
// the internal implementation types.
type (
	// Series is an ordered sequence of real values.
	Series = ts.Series
	// Instance is a labelled time series.
	Instance = ts.Instance
	// Dataset is a set of labelled time series.
	Dataset = ts.Dataset
	// Shapelet is a discovered discriminative subsequence.
	Shapelet = classify.Shapelet
	// Options parameterises the IPS pipeline; see DefaultOptions.
	Options = core.Options
	// Model is a trained IPS classifier.
	Model = core.Model
	// Result reports a discovery run: shapelets, pool sizes, timings.
	Result = core.Result
	// IPConfig parameterises candidate generation (Algorithm 1).
	IPConfig = ip.Config
	// DABFConfig parameterises the distribution-aware bloom filter.
	DABFConfig = dabf.Config
	// SVMConfig parameterises the final linear SVM.
	SVMConfig = classify.SVMConfig
	// GenConfig controls the synthetic UCR-style dataset generator.
	GenConfig = ucr.GenConfig
	// DatasetMeta describes a UCR dataset (sizes, length, classes).
	DatasetMeta = ucr.Meta
	// Observer collects spans, metrics, and progress for a run; assign one
	// to Options.Obs.  See internal/obs for the full API.
	Observer = obs.Observer
	// Span is one timed region of the pipeline's span tree.
	Span = obs.Span
	// MetricsRegistry holds the run's counters, gauges, and histograms.
	MetricsRegistry = obs.Registry
	// Error is the structured failure type every pipeline error unwraps to:
	// it records the stage, operation, and dataset of the failure.  Inspect
	// with errors.As.
	Error = errs.Error
	// Stage identifies the pipeline stage an Error originated in.
	Stage = errs.Stage
	// Stream is online per-series state: an incremental matrix profile
	// (STOMPI), a delta-evaluated shapelet transform, and drift detection.
	// Build one with NewStream; it is not safe for concurrent use.
	Stream = stream.Stream
	// StreamConfig parameterises a Stream; see NewStream for the common case.
	StreamConfig = stream.Config
	// StreamDriftConfig tunes a Stream's drift detector.
	StreamDriftConfig = stream.DriftConfig
	// StreamUpdate is the state reported after each Stream.Append.
	StreamUpdate = stream.Update
)

// Pipeline stages, for matching Error.Stage.
const (
	StageValidate     = errs.StageValidate
	StageCandidateGen = errs.StageCandidateGen
	StagePruning      = errs.StagePruning
	StageSelection    = errs.StageSelection
	StageTransform    = errs.StageTransform
	StageTrain        = errs.StageTrain
	StagePredict      = errs.StagePredict
	StageKernel       = errs.StageKernel
	StageData         = errs.StageData
	StageBench        = errs.StageBench
	StageStream       = errs.StageStream
)

// Sentinel errors; match with errors.Is.
var (
	// ErrCanceled marks a run stopped by context cancellation or deadline.
	// A Discover/Evaluate error matching it may carry a partial *Result.
	ErrCanceled = errs.ErrCanceled
	// ErrBadInput marks rejected input: empty datasets, NaN/Inf values,
	// mismatched lengths, untrained models.
	ErrBadInput = errs.ErrBadInput
	// ErrDegenerate marks statistically degenerate data (e.g. a class whose
	// candidates admit no distribution fit).
	ErrDegenerate = errs.ErrDegenerate
	// ErrNoShapelets marks a discovery run that produced no shapelets.
	ErrNoShapelets = errs.ErrNoShapelets
	// ErrUnknownDataset marks a dataset name absent from the UCR archive.
	ErrUnknownDataset = ucr.ErrUnknownDataset
)

// NewObserver returns an observer with a live metrics registry, ready to be
// assigned to Options.Obs.  After the run, render the span tree with
// o.RenderTree, export it with o.WriteTraceFile, or read o.Metrics().
func NewObserver(name string) *Observer { return obs.New(name) }

// ServeDebug starts a background HTTP server with net/http/pprof under
// /debug/pprof/, expvar under /debug/vars, and the observer's metrics at
// /metrics (text) and /metrics.json.  It returns the server and the bound
// address (useful with ":0"); o may be nil to expose profiling only.
func ServeDebug(addr string, o *Observer) (*http.Server, string, error) {
	return obs.ServeDebug(addr, o.Metrics(), nil)
}

// DefaultOptions returns the paper's default parameters: k = 5 shapelets per
// class, candidate length ratios {0.1 … 0.5}, Q_N = 10 samples of Q_S = 3
// instances, L2 LSH with the 3σ pruning rule.
func DefaultOptions() Options {
	return Options{K: 5}.WithDefaults()
}

// Discover runs shapelet discovery (Algorithms 1–4) on the training set.
// Cancelling ctx returns an error matching ErrCanceled together with a
// partial Result covering the completed stages.
func Discover(ctx context.Context, train *Dataset, opt Options) (*Result, error) {
	return core.Discover(ctx, train, opt)
}

// Fit discovers shapelets and trains the shapelet-transform + SVM classifier.
// Cancelling ctx returns an error matching ErrCanceled.
func Fit(ctx context.Context, train *Dataset, opt Options) (*Model, error) {
	return core.Fit(ctx, train, opt)
}

// Evaluate fits on train and returns accuracy (%) on test with the model.
func Evaluate(ctx context.Context, train, test *Dataset, opt Options) (float64, *Model, error) {
	return core.Evaluate(ctx, train, test, opt)
}

// Transform embeds every instance into shapelet-distance space (Def. 7).
// A nil or empty dataset, an empty instance or a NaN/Inf value returns an
// error matching ErrBadInput.  Cancelling ctx returns an error matching
// ErrCanceled.
func Transform(ctx context.Context, d *Dataset, shapelets []Shapelet) ([][]float64, error) {
	if d == nil {
		return nil, errs.BadInput(errs.StageTransform, "transform", "", "nil dataset")
	}
	if err := d.Validate(false); err != nil {
		return nil, errs.BadInputErr(errs.StageTransform, "transform", d.Name, err)
	}
	return classify.TransformWith(ctx, d, shapelets, classify.TransformConfig{})
}

// LoadTSV reads a dataset in the UCR archive TSV format.
func LoadTSV(path string) (*Dataset, error) { return ucr.LoadTSV(path) }

// WriteTSV writes a dataset in the UCR archive TSV format.
func WriteTSV(path string, d *Dataset) error { return ucr.WriteTSV(path, d) }

// LoadSplit loads <dir>/<name>_TRAIN.tsv and <dir>/<name>_TEST.tsv.
func LoadSplit(dir, name string) (train, test *Dataset, err error) {
	return ucr.LoadSplit(dir, name)
}

// GenerateDataset synthesises the named UCR dataset's train/test splits with
// the archive's real sizes (see DESIGN.md §3 for the substitution rationale).
func GenerateDataset(name string, cfg GenConfig) (train, test *Dataset, err error) {
	return ucr.GenerateByName(name, cfg)
}

// Datasets lists the 46 UCR datasets of the paper's evaluation.
func Datasets() []DatasetMeta { return ucr.Archive }

// LoadModel reads a trained model previously written with Model.Save or
// Model.SaveFile.
func LoadModel(path string) (*Model, error) { return core.LoadModelFile(path) }

// CVResult summarises a cross-validation run.
type CVResult = core.CVResult

// CrossValidate runs stratified k-fold cross-validation of the IPS pipeline
// on a single dataset — the evaluation mode when there is no train/test
// split.  Cancelling ctx returns the completed folds' accuracies in a
// partial CVResult alongside an error matching ErrCanceled.
func CrossValidate(ctx context.Context, d *Dataset, opt Options, folds int, seed int64) (*CVResult, error) {
	return core.CrossValidate(ctx, d, opt, folds, seed)
}

// LookupDataset returns the archive metadata for a UCR dataset name; an
// unknown name yields an error matching ErrUnknownDataset.
func LookupDataset(name string) (DatasetMeta, error) { return ucr.Find(name) }

// Spark renders s as a one-line sparkline: one block rune per value, from ▁
// at its minimum to █ at its maximum.
func Spark(s Series) string { return ts.Spark(s) }

// NewStream opens a streaming classifier for one series against a trained
// model: points appended with Stream.Append update an incremental matrix
// profile (byte-identical to a batch recompute), a shapelet-transform
// feature vector brought current by delta-evaluation, the model's
// prediction, and a drift detector that flags when the series' behaviour
// departs from its own history — the signal to re-fit.  window is the
// matrix-profile window length; pass 0 for the default (the model's
// shortest shapelet).  For full control build a StreamConfig and call
// NewStreamConfig.
func NewStream(m *Model, window int) (*Stream, error) {
	if m == nil {
		return nil, errs.BadInput(errs.StageStream, "ips.newstream", "", "model is nil")
	}
	return stream.New(stream.Config{
		Window:    window,
		Shapelets: m.Shapelets,
		Scaler:    m.Scaler,
		SVM:       m.SVM,
	})
}

// NewStreamConfig opens a streaming classifier from an explicit config —
// use it for profile-only streams (no shapelets), point caps, or custom
// drift thresholds.
func NewStreamConfig(cfg StreamConfig) (*Stream, error) { return stream.New(cfg) }
