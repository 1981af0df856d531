package core

import (
	"context"
	"errors"
	"time"

	"ips/internal/classify"
	"ips/internal/dabf"
	"ips/internal/errs"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
)

// Options parameterises the full IPS pipeline.
type Options struct {
	IP   ip.Config
	DABF dabf.Config
	// K is the number of shapelets per class (paper default 5).
	K int
	// DisableDABF switches candidate pruning to the naive quadratic method
	// (the "without DABF" column of Table V / Fig. 10a).
	DisableDABF bool
	// DisableDT / DisableCR turn off the two §III-E optimisations (the
	// "without DT+CR" column of Table V / Fig. 10b,c).
	DisableDT bool
	DisableCR bool
	// SVM configures the final classifier used by Fit/Evaluate.
	SVM classify.SVMConfig
	// Workers parallelises candidate generation, the shapelet transform,
	// and — when profile jobs are scarcer than workers — the diagonal-tiled
	// STOMP kernel underneath (<=1 means sequential).  Results are
	// identical for any worker count: the kernel's deterministic min-merge
	// makes each profile byte-identical, and the sampling streams are fixed
	// before any fan-out.  This is the shared-memory form of the
	// distributed discovery the paper lists as future work.
	Workers int
	// Precision is an empty placeholder: the shapelet transform has one
	// arithmetic, byte-identical to the per-pair ts.Dist loop.
	//
	// Deprecated: nothing reads it, and it will be removed.
	Precision struct{}
	// Obs receives spans, metrics, and progress for the run (see
	// internal/obs).  Nil means observability off: the pipeline still builds
	// a private spans-only tree to derive Result.Timings, but no metrics
	// registry exists, so every counter update in the hot loops is a nil
	// no-op.  Discovery output is identical with or without an observer.
	Obs *obs.Observer `json:"-"`
}

// WithDefaults returns a copy with zero-valued fields filled in with the
// paper's defaults.
func (o Options) WithDefaults() Options {
	o.IP = o.IP.Defaults()
	o.DABF = o.DABF.Defaults()
	if o.K <= 0 {
		o.K = 5
	}
	return o
}

// Timings is the per-step runtime breakdown of Table V, extended with the
// post-discovery training steps.  Since the observability refactor it is a
// view derived from the run's span tree rather than ad-hoc stopwatch calls.
type Timings struct {
	CandidateGen time.Duration
	Pruning      time.Duration
	Selection    time.Duration
	// Transform and Train are filled by Fit (zero after a bare Discover):
	// the shapelet-transform embedding of the training set, and scaler
	// fitting plus SVM training.
	Transform time.Duration
	Train     time.Duration
}

// Total returns the end-to-end discovery time (the Table V sum; training
// steps are excluded — see FitTotal).
func (t Timings) Total() time.Duration {
	return t.CandidateGen + t.Pruning + t.Selection
}

// FitTotal returns the end-to-end fit time: discovery plus the shapelet
// transform and classifier training.
func (t Timings) FitTotal() time.Duration {
	return t.Total() + t.Transform + t.Train
}

// Result is the outcome of shapelet discovery.
type Result struct {
	Shapelets   []classify.Shapelet
	PoolSize    int // candidates generated by Algorithm 1
	PrunedSize  int // candidates surviving Algorithm 3
	PruneStats  dabf.PruneStats
	DABF        *dabf.DABF // nil when DisableDABF is set
	Timings     Timings
	FitsByClass map[int]string // best-fit distribution name per class
}

// partialOn implements the partial-result contract: a cancellation error
// keeps the (partial) result — completed stages, their timings, and the
// span tree the run produced so far — while any other failure discards it.
func partialOn[T any](res T, err error) (T, error) {
	if errors.Is(err, errs.ErrCanceled) {
		return res, err
	}
	var zero T
	return zero, err
}

// Discover runs the three IPS stages — candidate generation (Alg. 1), DABF
// construction and pruning (Alg. 2+3), and top-k selection (Alg. 4) — and
// returns the discovered shapelets with a per-stage timing breakdown derived
// from the run's span tree.
//
// Cancelling ctx stops the run cooperatively (per profile job, per filter
// class, per candidate batch) and returns an error matching
// errs.ErrCanceled together with a non-nil partial Result: the stages that
// completed keep their sizes and timings, so callers (and the span tree on
// opt.Obs) can see exactly how far the run got.  All other failures return
// a nil Result and a typed *errs.Error.
func Discover(ctx context.Context, train *ts.Dataset, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.WithDefaults()
	if train == nil {
		return nil, errs.BadInput(errs.StageValidate, "discover", "", "nil dataset")
	}
	if err := train.Validate(true); err != nil {
		return nil, errs.BadInputErr(errs.StageValidate, "discover", train.Name, err)
	}
	o := opt.Obs
	if o == nil {
		// Private spans-only tree: Timings stay available, metrics stay off.
		o = obs.SpansOnly("ips")
	}
	res := &Result{FitsByClass: map[int]string{}}
	if opt.Workers > 1 && opt.IP.Workers <= 1 {
		opt.IP.Workers = opt.Workers
	}
	dsp := o.Root().Child("discover")
	defer dsp.End()
	lg := obs.Log(ctx)
	lg.Info("discovery starting", "dataset", train.Name,
		"instances", train.Len(), "length", train.SeriesLen(),
		"classes", len(train.Classes()), "workers", opt.Workers)

	genSp := dsp.Child("candidate-gen")
	o.Progress("candidate-gen", 0, 1)
	pool, err := ip.GenerateSpan(obs.WithSpan(ctx, genSp), train, opt.IP, genSp)
	genSp.End()
	res.Timings.CandidateGen = genSp.Duration()
	if err != nil {
		lg.Warn("candidate generation failed", obs.ErrAttrs(err)...)
		return partialOn(res, errs.Wrap(errs.StageCandidateGen, "discover", train.Name, err))
	}
	res.PoolSize = pool.Size()
	lg.Info("candidates generated",
		"candidates", res.PoolSize, "elapsed", genSp.Duration())

	pruneSp := dsp.Child("pruning")
	o.Progress("pruning", 0, 1)
	var pruned *ip.Pool
	if opt.DisableDABF {
		var perr error
		pruned, res.PruneStats, perr = dabf.NaivePrune(ctx, pool, opt.DABF.Dim, opt.DABF.Sigma)
		if perr != nil {
			pruneSp.End()
			res.Timings.Pruning = pruneSp.Duration()
			lg.Warn("naive pruning failed", obs.ErrAttrs(perr)...)
			return partialOn(res, errs.Wrap(errs.StagePruning, "discover", train.Name, perr))
		}
	} else {
		buildSp := pruneSp.Child("dabf-build")
		d, berr := dabf.BuildSpan(obs.WithSpan(ctx, buildSp), pool, opt.DABF, buildSp)
		buildSp.End()
		if berr != nil {
			pruneSp.End()
			res.Timings.Pruning = pruneSp.Duration()
			lg.Warn("DABF build failed", obs.ErrAttrs(berr)...)
			return partialOn(res, errs.Wrap(errs.StagePruning, "discover", train.Name, berr))
		}
		res.DABF = d
		for c, cf := range d.PerClass {
			res.FitsByClass[c] = cf.Dist.Name()
		}
		querySp := pruneSp.Child("dabf-query")
		var qerr error
		pruned, res.PruneStats, qerr = dabf.PruneSpan(obs.WithSpan(ctx, querySp), pool, d, querySp)
		querySp.End()
		if qerr != nil {
			pruneSp.End()
			res.Timings.Pruning = pruneSp.Duration()
			lg.Warn("DABF pruning failed", obs.ErrAttrs(qerr)...)
			return partialOn(res, errs.Wrap(errs.StagePruning, "discover", train.Name, qerr))
		}
	}
	pruneSp.End()
	res.Timings.Pruning = pruneSp.Duration()
	res.PrunedSize = pruned.Size()
	lg.Info("candidates pruned", "kept", res.PrunedSize,
		"dropped", res.PoolSize-res.PrunedSize, "elapsed", pruneSp.Duration())

	selSp := dsp.Child("selection")
	o.Progress("selection", 0, 1)
	shapelets, serr := SelectTopK(obs.WithSpan(ctx, selSp), pruned, train, res.DABF, SelectionConfig{
		K:     opt.K,
		UseDT: !opt.DisableDT && res.DABF != nil,
		UseCR: !opt.DisableCR,
		Span:  selSp,
	})
	selSp.End()
	res.Timings.Selection = selSp.Duration()
	if serr != nil {
		lg.Warn("selection failed", obs.ErrAttrs(serr)...)
		return partialOn(res, errs.Wrap(errs.StageSelection, "discover", train.Name, serr))
	}
	res.Shapelets = shapelets
	o.Progress("selection", 1, 1)

	if len(res.Shapelets) == 0 {
		return nil, &errs.Error{Stage: errs.StageSelection, Op: "discover",
			Dataset: train.Name, Err: errs.ErrNoShapelets}
	}
	lg.Info("discovery done", "shapelets", len(res.Shapelets),
		"elapsed", res.Timings.Total())
	return res, nil
}

// Model is a trained shapelet classifier: the shapelets plus the
// shapelet-transform scaler and linear SVM (§III Remarks).
type Model struct {
	Shapelets []classify.Shapelet
	Scaler    *classify.Scaler
	SVM       *classify.SVM
	// Discovery is the discovery Result of a Fit.  A model from Train
	// carries only the shapelets and the Transform and Train timings.
	Discovery *Result

	workers int
}

// Fit discovers shapelets on the training set and trains the final
// classifier on the shapelet-transformed features: Discover, then Train.
// Model.Discovery.Timings.Transform/Train report the embedding and
// scaler+SVM time, so FitTotal covers the whole fit, not just discovery.
//
// A cancelled fit returns a nil model and an error matching
// errs.ErrCanceled; the span tree on opt.Obs (and, for cancellations during
// discovery, the partial Result Discover carries) records the completed
// stages.  Cancellation latency is bounded by the cooperative checks of
// every stage: profile jobs and kernel tiles, filter classes, candidate
// batches, embedding instances, and coordinate-descent passes.
func Fit(ctx context.Context, train *ts.Dataset, opt Options) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.WithDefaults()
	if opt.Obs == nil {
		// Share one spans-only tree across discovery and training so the
		// Timings view covers the whole fit.
		opt.Obs = obs.SpansOnly("ips")
	}
	res, err := Discover(ctx, train, opt)
	if err != nil {
		return nil, err
	}
	m, err := Train(ctx, train, res.Shapelets, opt)
	if err != nil {
		return nil, err
	}
	res.Timings.Transform = m.Discovery.Timings.Transform
	res.Timings.Train = m.Discovery.Timings.Train
	m.Discovery = res
	return m, nil
}

// Train is the classifier every shapelet method in this repository shares,
// so accuracy comparisons isolate the discovery step: the shapelet
// transform of train (Def. 7), a standardising scaler, and the linear SVM.
// It records a "transform" and a "train" span under opt.Obs's root, and
// reads only opt.SVM, opt.Workers and opt.Obs.  Bad input returns an error
// matching errs.ErrBadInput (errs.ErrNoShapelets for an empty shapelet
// set); a cancelled run returns a nil model and an error matching
// errs.ErrCanceled.
func Train(ctx context.Context, train *ts.Dataset, shapelets []classify.Shapelet, opt Options) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if train == nil {
		return nil, errs.BadInput(errs.StageValidate, "fit", "", "nil dataset")
	}
	if err := train.Validate(true); err != nil {
		return nil, errs.BadInputErr(errs.StageValidate, "fit", train.Name, err)
	}
	if len(shapelets) == 0 {
		return nil, &errs.Error{Stage: errs.StageTrain, Op: "fit", Dataset: train.Name, Err: errs.ErrNoShapelets}
	}
	o := opt.Obs
	if o == nil {
		o = obs.SpansOnly("ips")
	}
	res := &Result{Shapelets: shapelets}
	lg := obs.Log(ctx)
	tsp := o.Root().Child("transform")
	o.Progress("transform", 0, 1)
	X, err := classify.TransformWith(obs.WithSpan(ctx, tsp), train, shapelets, classify.TransformConfig{
		Workers: opt.Workers, Span: tsp,
	})
	tsp.End()
	res.Timings.Transform = tsp.Duration()
	if err != nil {
		lg.Warn("shapelet transform failed", obs.ErrAttrs(err)...)
		return nil, errs.Wrap(errs.StageTransform, "fit", train.Name, err)
	}
	lg.Info("training set transformed", "instances", len(X),
		"features", len(shapelets), "elapsed", tsp.Duration())

	trainSp := o.Root().Child("train")
	o.Progress("train", 0, 1)
	scaler, err := classify.FitScaler(X)
	if err != nil {
		trainSp.End()
		return nil, errs.BadInputErr(errs.StageTrain, "fit", train.Name, err)
	}
	Xs := scaler.Apply(X)
	svm, err := classify.TrainSVMCtx(obs.WithSpan(ctx, trainSp), Xs, train.Labels(), opt.SVM, trainSp)
	trainSp.End()
	res.Timings.Train = trainSp.Duration()
	if err != nil {
		lg.Warn("classifier training failed", obs.ErrAttrs(err)...)
		return nil, errs.Wrap(errs.StageTrain, "fit", train.Name, err)
	}
	o.Progress("train", 1, 1)
	lg.Info("classifier trained", "elapsed", trainSp.Duration())
	return &Model{Shapelets: shapelets, Scaler: scaler, SVM: svm, Discovery: res,
		workers: opt.Workers}, nil
}

// Predict classifies every instance of the dataset.  The model must be
// trained (or loaded) and the dataset non-empty with finite values; bad
// input returns a typed error matching errs.ErrBadInput instead of
// panicking.  Cancelling ctx mid-transform returns an error matching
// errs.ErrCanceled.
func (m *Model) Predict(ctx context.Context, d *ts.Dataset) ([]int, error) {
	if m == nil || m.Scaler == nil || m.SVM == nil || len(m.Shapelets) == 0 {
		return nil, errs.BadInput(errs.StagePredict, "predict", "", "model is nil or untrained")
	}
	if len(m.Scaler.Mean) != len(m.Shapelets) {
		return nil, errs.BadInput(errs.StagePredict, "predict", "",
			"model dimension mismatch: scaler has %d features, %d shapelets",
			len(m.Scaler.Mean), len(m.Shapelets))
	}
	name := ""
	if d != nil {
		name = d.Name
	}
	if d == nil || len(d.Instances) == 0 {
		return nil, errs.BadInput(errs.StagePredict, "predict", name, "empty dataset")
	}
	if err := d.Validate(false); err != nil {
		return nil, errs.BadInputErr(errs.StagePredict, "predict", name, err)
	}
	X, err := classify.TransformWith(ctx, d, m.Shapelets, classify.TransformConfig{Workers: m.workers})
	if err != nil {
		return nil, errs.Wrap(errs.StagePredict, "predict", name, err)
	}
	return m.SVM.PredictAll(m.Scaler.Apply(X)), nil
}

// Evaluate fits on train and returns the accuracy (%) on test together with
// the trained model.  Cancellation and input failures carry the same typed
// errors as Fit and Predict.
func Evaluate(ctx context.Context, train, test *ts.Dataset, opt Options) (float64, *Model, error) {
	m, err := Fit(ctx, train, opt)
	if err != nil {
		return 0, nil, err
	}
	pred, err := m.Predict(ctx, test)
	if err != nil {
		return 0, nil, err
	}
	acc := classify.Accuracy(pred, test.Labels())
	obs.Log(ctx).Info("evaluation done", "dataset", test.Name,
		"instances", test.Len(), "accuracy", acc)
	return acc, m, nil
}
