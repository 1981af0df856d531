// Package mts extends IPS to multivariate time series classification — the
// second future-work direction of the paper's conclusion.  Each channel of a
// multivariate instance is treated as a univariate series: shapelets are
// discovered per channel with the full IPS pipeline, instances are embedded
// by concatenating the per-channel shapelet transforms, and a single linear
// SVM classifies the joint embedding (the channel-independent scheme used by
// ShapeNet-style baselines).
package mts

import (
	"context"
	"errors"
	"fmt"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/errs"
	"ips/internal/ts"
)

// Instance is a labelled multivariate time series: one Series per channel,
// all channels the same length.
type Instance struct {
	Channels []ts.Series
	Label    int
}

// Dataset is a set of labelled multivariate instances.
type Dataset struct {
	Name      string
	Instances []Instance
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Instances) }

// NumChannels returns the channel count of the first instance (0 when
// empty).
func (d *Dataset) NumChannels() int {
	if len(d.Instances) == 0 {
		return 0
	}
	return len(d.Instances[0].Channels)
}

// Labels returns every instance label in order.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Instances))
	for i, in := range d.Instances {
		out[i] = in.Label
	}
	return out
}

// Validate checks structural invariants: consistent channel counts and
// non-empty channels.
func (d *Dataset) Validate() error {
	if len(d.Instances) == 0 {
		return errors.New("mts: dataset has no instances")
	}
	channels := len(d.Instances[0].Channels)
	if channels == 0 {
		return errors.New("mts: instances have no channels")
	}
	for i, in := range d.Instances {
		if len(in.Channels) != channels {
			return fmt.Errorf("mts: instance %d has %d channels, want %d", i, len(in.Channels), channels)
		}
		for c, ch := range in.Channels {
			if len(ch) == 0 {
				return fmt.Errorf("mts: instance %d channel %d is empty", i, c)
			}
		}
	}
	return nil
}

// Channel projects the dataset onto one channel as a univariate dataset.
// The returned instances alias the multivariate storage.
func (d *Dataset) Channel(c int) *ts.Dataset {
	out := &ts.Dataset{Name: fmt.Sprintf("%s[ch%d]", d.Name, c)}
	for _, in := range d.Instances {
		out.Instances = append(out.Instances, ts.Instance{Values: in.Channels[c], Label: in.Label})
	}
	return out
}

// Model is a trained multivariate IPS classifier.
type Model struct {
	// ShapeletsPerChannel[c] holds the shapelets discovered on channel c.
	ShapeletsPerChannel [][]classify.Shapelet
	Scaler              *classify.Scaler
	SVM                 *classify.SVM
	// Discoveries records each channel's discovery result.
	Discoveries []*core.Result

	workers int
}

// Fit discovers shapelets on every channel and trains one SVM on the
// concatenated per-channel shapelet transforms.  opt.Workers parallelises
// discovery, the transforms and the SVM, here and in the model's Predict;
// the model is bit-identical for any value.  Channels on which discovery
// fails (e.g. a constant channel) contribute no features but do not abort
// the fit, as long as at least one channel succeeds.  Cancellation is the
// exception: a ctx error aborts the whole fit immediately with an error
// matching errs.ErrCanceled, never a model trained on a channel subset.
func Fit(ctx context.Context, train *Dataset, opt core.Options) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if train == nil {
		return nil, errs.BadInput(errs.StageValidate, "mts.fit", "", "nil dataset")
	}
	if err := train.Validate(); err != nil {
		return nil, errs.BadInputErr(errs.StageValidate, "mts.fit", train.Name, err)
	}
	opt = opt.WithDefaults()
	m := &Model{workers: opt.Workers}
	channels := train.NumChannels()
	for c := 0; c < channels; c++ {
		res, err := core.Discover(ctx, train.Channel(c), opt)
		if errors.Is(err, errs.ErrCanceled) {
			return nil, err
		}
		if err != nil {
			m.ShapeletsPerChannel = append(m.ShapeletsPerChannel, nil)
			m.Discoveries = append(m.Discoveries, nil)
			continue
		}
		m.ShapeletsPerChannel = append(m.ShapeletsPerChannel, res.Shapelets)
		m.Discoveries = append(m.Discoveries, res)
	}
	X, err := m.embed(ctx, train)
	if err != nil {
		return nil, err
	}
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, errs.BadInput(errs.StageSelection, "mts.fit", train.Name, "no channel produced shapelets")
	}
	scaler, err := classify.FitScaler(X)
	if err != nil {
		return nil, errs.BadInputErr(errs.StageTrain, "mts.fit", train.Name, err)
	}
	svm, err := classify.TrainSVMCtx(ctx, scaler.Apply(X), train.Labels(), opt.SVM, nil)
	if err != nil {
		return nil, errs.Wrap(errs.StageTrain, "mts.fit", train.Name, err)
	}
	m.Scaler = scaler
	m.SVM = svm
	return m, nil
}

// embed concatenates the per-channel shapelet transforms.
func (m *Model) embed(ctx context.Context, d *Dataset) ([][]float64, error) {
	total := 0
	for _, sh := range m.ShapeletsPerChannel {
		total += len(sh)
	}
	out := make([][]float64, d.Len())
	for i := range out {
		out[i] = make([]float64, 0, total)
	}
	for c, sh := range m.ShapeletsPerChannel {
		if len(sh) == 0 {
			continue
		}
		X, err := classify.TransformWith(ctx, d.Channel(c), sh, classify.TransformConfig{Workers: m.workers})
		if err != nil {
			return nil, errs.Wrap(errs.StageTransform, "mts.embed", d.Name, err)
		}
		for i := range out {
			out[i] = append(out[i], X[i]...)
		}
	}
	return out, nil
}

// Predict classifies every instance.  The model must be trained and the
// dataset structurally valid; failures return typed errors instead of
// panicking.
func (m *Model) Predict(ctx context.Context, d *Dataset) ([]int, error) {
	if m == nil || m.Scaler == nil || m.SVM == nil {
		return nil, errs.BadInput(errs.StagePredict, "mts.predict", "", "model is nil or untrained")
	}
	if d == nil {
		return nil, errs.BadInput(errs.StagePredict, "mts.predict", "", "nil dataset")
	}
	if err := d.Validate(); err != nil {
		return nil, errs.BadInputErr(errs.StagePredict, "mts.predict", d.Name, err)
	}
	X, err := m.embed(ctx, d)
	if err != nil {
		return nil, err
	}
	return m.SVM.PredictAll(m.Scaler.Apply(X)), nil
}

// Evaluate fits on train and returns accuracy (%) on test with the model.
func Evaluate(ctx context.Context, train, test *Dataset, opt core.Options) (float64, *Model, error) {
	m, err := Fit(ctx, train, opt)
	if err != nil {
		return 0, nil, err
	}
	pred, err := m.Predict(ctx, test)
	if err != nil {
		return 0, nil, err
	}
	return classify.Accuracy(pred, test.Labels()), m, nil
}
