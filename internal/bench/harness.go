package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ips/internal/baselines"
	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/errs"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// Harness runs the paper's experiments against either the synthetic UCR
// substitute or real UCR TSV files.
type Harness struct {
	// Quick caps dataset sizes so the whole suite runs in CI time; the
	// relative ordering between datasets and methods is preserved.
	Quick bool
	// DataDir, when non-empty, loads <dir>/<name>_TRAIN.tsv and _TEST.tsv
	// instead of generating synthetic data.
	DataDir string
	// Seed drives every random choice (sampling, LSH, SVM, generation).
	Seed int64
	// K is the number of shapelets per class (paper default 5).
	K int
	// Runs is the number of repetitions whose accuracy is averaged for the
	// randomised methods (the paper reports the mean of 5 runs for IPS,
	// COTE-IPS, and BASE); default 1.
	Runs int
	// Out receives the formatted tables; defaults to io.Discard when nil.
	Out io.Writer
	// Obs, when non-nil, threads spans and metrics through every IPS
	// pipeline run the harness performs (see internal/obs); each Discover
	// appears as one subtree under the observer's root.
	Obs *obs.Observer
	// Workers parallelises the IPS pipeline and the BASE baseline's STOMP
	// joins (<=1 means sequential).  Accuracies are unaffected: every
	// parallel path is deterministic for any worker count.
	Workers int
}

// benchCtx normalises a possibly-nil context; every exported experiment
// method accepts ctx first and checks it between datasets (and, through the
// pipeline calls, inside each run), so cancelling the context stops a long
// table sweep within one pipeline stage's cancellation latency.
func benchCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// ctxErr annotates a cancelled bench sweep with the experiment name.
func ctxErr(ctx context.Context, op string) error {
	return errs.Ctx(ctx, errs.StageBench, op)
}

func (h *Harness) runs() int {
	if h.Runs <= 0 {
		return 1
	}
	return h.Runs
}

func (h *Harness) out() io.Writer {
	if h.Out == nil {
		return io.Discard
	}
	return h.Out
}

func (h *Harness) k() int {
	if h.K <= 0 {
		return 5
	}
	return h.K
}

// genConfig returns the dataset generation caps for the current mode.
func (h *Harness) genConfig() ucr.GenConfig {
	cfg := ucr.GenConfig{Seed: h.Seed}
	if h.Quick {
		cfg.MaxTrain = 30
		cfg.MaxTest = 60
		cfg.MaxLength = 160
	} else {
		// Even in full mode, bound the very largest archive entries so a
		// complete Table IV run finishes in hours, not days, on a laptop.
		cfg.MaxTrain = 400
		cfg.MaxTest = 300
		cfg.MaxLength = 512
	}
	return cfg
}

// Load returns the train/test splits for a dataset.
func (h *Harness) Load(name string) (train, test *ts.Dataset, err error) {
	if h.DataDir != "" {
		return ucr.LoadSplit(h.DataDir, name)
	}
	return ucr.GenerateByName(name, h.genConfig())
}

// ipsOptions returns the IPS pipeline configuration for the current mode.
func (h *Harness) ipsOptions() core.Options {
	opt := core.Options{
		IP:      ip.Config{QN: 10, QS: 3, Seed: h.Seed},
		DABF:    dabf.Config{Seed: h.Seed},
		K:       h.k(),
		SVM:     classify.SVMConfig{Seed: h.Seed},
		Obs:     h.Obs,
		Workers: h.Workers,
	}
	if h.Quick {
		opt.IP.QN = 5
	}
	return opt.WithDefaults()
}

// MethodResult is one (method, dataset) measurement.
type MethodResult struct {
	Accuracy float64
	Runtime  time.Duration
}

// RunIPS measures the IPS pipeline (discovery + classification) on a
// dataset, averaging accuracy over h.Runs repetitions with distinct seeds
// (the paper's 5-run mean).  Runtime is the per-run average; the returned
// model is from the final run.
func (h *Harness) RunIPS(ctx context.Context, train, test *ts.Dataset) (MethodResult, *core.Model, error) {
	ctx = benchCtx(ctx)
	var sumAcc float64
	var sumRT time.Duration
	var model *core.Model
	n := h.runs()
	for r := 0; r < n; r++ {
		opt := h.ipsOptions()
		opt.IP.Seed = h.Seed + int64(r)
		opt.DABF.Seed = h.Seed + int64(r)
		opt.SVM.Seed = h.Seed + int64(r)
		sw := obs.NewStopwatch()
		acc, m, err := core.Evaluate(ctx, train, test, opt)
		if err != nil {
			return MethodResult{}, nil, err
		}
		sumRT += sw.Elapsed()
		sumAcc += acc
		model = m
	}
	obs.Log(ctx).Info("IPS runs measured", "op", "bench.run-ips",
		"dataset", train.Name, "runs", n,
		"accuracy", sumAcc/float64(n), "avg_runtime", sumRT/time.Duration(n))
	return MethodResult{
		Accuracy: sumAcc / float64(n),
		Runtime:  sumRT / time.Duration(n),
	}, model, nil
}

// evaluateWithOptions runs the IPS pipeline under explicit options and
// returns accuracy plus runtime.
func evaluateWithOptions(ctx context.Context, train, test *ts.Dataset, opt core.Options) (float64, time.Duration, error) {
	sw := obs.NewStopwatch()
	acc, _, err := core.Evaluate(ctx, train, test, opt)
	return acc, sw.Elapsed(), err
}

// RunBase measures the MP baseline with the given k.
func (h *Harness) RunBase(ctx context.Context, train, test *ts.Dataset, k int) (MethodResult, error) {
	sw := obs.NewStopwatch()
	acc, err := baselines.BaseEvaluateCtx(benchCtx(ctx), train, test,
		baselines.BaseConfig{K: k, Workers: h.Workers},
		classify.SVMConfig{Seed: h.Seed})
	if err != nil {
		return MethodResult{}, err
	}
	return MethodResult{Accuracy: acc, Runtime: sw.Elapsed()}, nil
}

// RunBSPCover measures the BSPCOVER comparator.
func (h *Harness) RunBSPCover(ctx context.Context, train, test *ts.Dataset, k int) (MethodResult, error) {
	sw := obs.NewStopwatch()
	acc, err := baselines.BSPCoverEvaluateCtx(benchCtx(ctx), train, test,
		baselines.BSPConfig{K: k},
		classify.SVMConfig{Seed: h.Seed})
	if err != nil {
		return MethodResult{}, err
	}
	return MethodResult{Accuracy: acc, Runtime: sw.Elapsed()}, nil
}

// RunNN measures a 1NN baseline.
func (h *Harness) RunNN(train, test *ts.Dataset, cfg classify.NNConfig) MethodResult {
	sw := obs.NewStopwatch()
	acc := classify.EvaluateNN(train.Instances, test.Instances, cfg)
	return MethodResult{Accuracy: acc, Runtime: sw.Elapsed()}
}

// table formats rows of cells with a header into aligned columns.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, hcell := range header {
		widths[i] = len(hcell)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
