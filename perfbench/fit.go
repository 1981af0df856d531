package main

import (
	"context"
	"fmt"
	"math"

	"ips"
	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
)

// uwave is the paper's Table V dataset: 896 train × 315 points, 8 classes,
// 3582 test.
const uwave = "UWaveGestureLibraryY"

// setupRepeats is how many times each workload sets up per run; setup_s is
// the median.
const setupRepeats = 3

// fitWorkers is the Options.Workers every fitted model uses: the box the
// benchmark was defined on has two CPUs.
const fitWorkers = 2

// fitProbes is how many times the host probe runs before the first fit and
// after each one.
const fitProbes = 16

// fitOptions is ips.DefaultOptions with the workload seed driving every
// seeded stage.
func fitOptions(seed int64) ips.Options {
	opt := ips.DefaultOptions()
	opt.Workers = fitWorkers
	opt.IP.Seed = seed
	opt.DABF.Seed = seed
	opt.SVM.Seed = seed
	return opt
}

// genConfig sizes a dataset: the archive sizes, or a few dozen series in
// small mode.
func genConfig(cfg config, seed int64, maxTest int) ips.GenConfig {
	g := ips.GenConfig{Seed: seed}
	if cfg.small {
		g.MaxTrain, g.MaxTest, g.MaxLength = 64, maxTest, 96
	}
	return g
}

// generate makes a dataset's splits and records the generation time.
func generate(name string, g ips.GenConfig, gen *samples) (train, test *ts.Dataset, err error) {
	sw := obs.NewStopwatch()
	train, test, err = ips.GenerateDataset(name, g)
	*gen = append(*gen, sw.Elapsed().Seconds())
	return train, test, err
}

// fitPoolBase and fitPool are the fit workload's draws: seeds fitPoolBase
// to fitPoolBase+fitPool-1.
const (
	fitPoolBase = 1000
	fitPool     = 8
)

// opSeed is the seed of the fit workload's k-th operation: its dataset and
// its IP, DABF and SVM seeds.  Operations rotate through the fixed pool of
// fitPool draws, starting at the workload seed, so a run of 9 to 12 fits
// times every draw at least once: runs differ in the order of the draws and
// in which few repeat, not in which draws they time.  Fit and Predict cost
// move with the draw (Model.Predict ran at 2160–2770 series/s over five
// runs' draws), so with a fresh draw per operation a run's median moved
// with its seed's draws by about as much as the host moved it.
func opSeed(seed int64, k int) int64 {
	i := (seed + int64(k)) % fitPool
	if i < 0 {
		i += fitPool
	}
	return fitPoolBase + i
}

// warmFit is the fit workload's warm-up: one unchecked ips.Fit and
// Model.Predict, so lazy set-up (kernel tile calibration, scratch arenas)
// is paid in setup_s rather than in the first timed operation.
func warmFit(ctx context.Context, train, test *ts.Dataset, seed int64) error {
	m, err := ips.Fit(ctx, train, fitOptions(seed))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if _, err := m.Predict(ctx, test); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// fitRef is the reference outcome a replay must reproduce exactly.
type fitRef struct {
	shapelets []ips.Shapelet
	pred      []int
}

func runFit(ctx context.Context, cfg config, rep *report, t *tally) error {
	var setup, gen samples
	var train, test *ts.Dataset
	for i := 0; i < setupRepeats; i++ {
		sw := obs.NewStopwatch()
		tr, te, err := generate(uwave, genConfig(cfg, opSeed(cfg.seed, 0), 64), &gen)
		if err != nil {
			return err
		}
		if err := warmFit(ctx, tr, te, opSeed(cfg.seed, 0)); err != nil {
			return err
		}
		setup = append(setup, sw.Elapsed().Seconds())
		train, test = tr, te
	}
	rep.printf("fit: %s train=%d test=%d length=%d classes=%d workers=%d, one dataset per fit",
		uwave, train.Len(), test.Len(), train.SeriesLen(), len(train.Classes()), fitWorkers)
	rep.median("setup_s", setup, "s")

	// Untraced pass: ips.Fit then Model.Predict, back to back, each on the
	// next dataset, until the measured time is up.  Generating the next
	// dataset is outside every timing.
	var fitMS, opMS, acc samples
	var refs []*fitRef
	predS, predicted := 0.0, 0
	probe := newHostProbe(fitWorkers)
	probe.sample(fitProbes)
	sw := obs.NewStopwatch()
	for k := 0; sw.Elapsed() < cfg.seconds || k == 0; k++ {
		if k > 0 {
			var err error
			if train, test, err = generate(uwave, genConfig(cfg, opSeed(cfg.seed, k), 64), &gen); err != nil {
				return err
			}
		}
		fsw := obs.NewStopwatch()
		m, err := ips.Fit(ctx, train, fitOptions(opSeed(cfg.seed, k)))
		fitD := fsw.Elapsed()
		if err != nil {
			t.op(fmt.Errorf("ips.Fit: %w", err))
			return err
		}
		psw := obs.NewStopwatch()
		pred, err := m.Predict(ctx, test)
		predD := psw.Elapsed()
		if err != nil {
			t.op(fmt.Errorf("Model.Predict: %w", err))
			return err
		}
		fitMS.addDur(fitD)
		opMS.addDur(fitD + predD)
		predS += predD.Seconds()
		predicted += test.Len()
		refs = append(refs, &fitRef{shapelets: m.Shapelets, pred: pred})
		a := classify.Accuracy(pred, test.Labels())
		acc = append(acc, a)
		t.op(checkAccuracy(a, test))
		probe.sample(fitProbes)
	}
	rep.printf("fit: %d fits in %.1fs", len(fitMS), sw.Elapsed().Seconds())
	rep.set("fit_s", fitMS.quantile(0.5)/1000, "s", fmt.Sprintf("(median, n=%d)", len(fitMS)))
	rate := float64(predicted) / predS
	rep.set("predict_series_per_s", rate, "series/s", fmt.Sprintf("(all %d Model.Predict calls, n=%d series)", len(fitMS), predicted))
	rep.median("accuracy_pct", acc, "%")
	rep.median("latency_p50_ms", opMS, "ms")
	rep.scaled(opMS, probe)

	if !cfg.trace {
		return nil
	}
	rep.median("ucr.generate_s", gen, "s")
	return traceFit(ctx, cfg, rep, t, refs, opMS)
}

// checkAccuracy requires the model to beat always answering the majority
// class.
func checkAccuracy(acc float64, test *ts.Dataset) error {
	if acc <= 100*majority(test) {
		return fmt.Errorf("%w: accuracy %.2f%% does not beat the majority class (%.2f%%)",
			errMismatch, acc, 100*majority(test))
	}
	return nil
}

// majority is the share of the most frequent class.
func majority(d *ts.Dataset) float64 {
	count := map[int]int{}
	best := 0
	for _, in := range d.Instances {
		count[in.Label]++
		best = max(best, count[in.Label])
	}
	return float64(best) / float64(max(d.Len(), 1))
}

// sameFit compares shapelets and predictions with ref bit for bit.
func sameFit(ref *fitRef, shapelets []ips.Shapelet, pred []int) error {
	if len(shapelets) != len(ref.shapelets) {
		return fmt.Errorf("%w: %d shapelets, reference has %d", errMismatch, len(shapelets), len(ref.shapelets))
	}
	for i, s := range shapelets {
		r := ref.shapelets[i]
		if s.Class != r.Class || !sameBits(s.Values, r.Values) || math.Float64bits(s.Score) != math.Float64bits(r.Score) {
			return fmt.Errorf("%w: shapelet %d differs from the reference", errMismatch, i)
		}
	}
	return samePreds(ref.pred, pred)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func samePreds(want, got []int) error {
	if len(want) != len(got) {
		return fmt.Errorf("%w: %d predictions, want %d", errMismatch, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%w: prediction %d is class %d, want %d", errMismatch, i, got[i], want[i])
		}
	}
	return nil
}

// replayFit runs ips.Fit's stages and Model.Predict's from outside the
// program, one span per call under op, and returns the shapelets, the test
// predictions and the pruning outcome.  The calls and their arguments are
// the ones core.Fit and core.Model.Predict make, so the output must equal
// theirs bit for bit.
func replayFit(ctx context.Context, train, test *ts.Dataset, opt ips.Options, op *obs.Span) (*fitRef, int, dabf.PruneStats, error) {
	opt = opt.WithDefaults()
	ipCfg := opt.IP
	if opt.Workers > 1 && ipCfg.Workers <= 1 {
		ipCfg.Workers = opt.Workers
	}
	var st dabf.PruneStats

	sp := op.Child("candidate-gen")
	pool, err := ip.GenerateSpan(obs.WithSpan(ctx, sp), train, ipCfg, sp)
	sp.End()
	if err != nil {
		return nil, 0, st, err
	}
	sp = op.Child("dabf-build")
	filter, err := dabf.BuildSpan(obs.WithSpan(ctx, sp), pool, opt.DABF, sp)
	sp.End()
	if err != nil {
		return nil, 0, st, err
	}
	sp = op.Child("dabf-query")
	pruned, st, err := dabf.PruneSpan(obs.WithSpan(ctx, sp), pool, filter, sp)
	sp.End()
	if err != nil {
		return nil, 0, st, err
	}
	sp = op.Child("selection")
	shapelets, err := core.SelectTopK(obs.WithSpan(ctx, sp), pruned, train, filter, core.SelectionConfig{
		K: opt.K, UseDT: true, UseCR: true, Span: sp,
	})
	sp.End()
	if err != nil {
		return nil, 0, st, err
	}

	sp = op.Child("transform")
	X, err := classify.TransformWith(obs.WithSpan(ctx, sp), train, shapelets, classify.TransformConfig{
		Workers: opt.Workers, Span: sp, Kernel: classify.DefaultKernel, Precision: opt.Precision,
	})
	sp.End()
	if err != nil {
		return nil, 0, st, err
	}
	sp = op.Child("train")
	scaler, err := classify.FitScaler(X)
	if err != nil {
		sp.End()
		return nil, 0, st, err
	}
	svm, err := classify.TrainSVMCtx(obs.WithSpan(ctx, sp), scaler.Apply(X), train.Labels(), opt.SVM, sp)
	sp.End()
	if err != nil {
		return nil, 0, st, err
	}

	sp = op.Child("predict")
	Xt, err := classify.TransformWith(obs.WithSpan(ctx, sp), test, shapelets, classify.TransformConfig{
		Workers: opt.Workers, Span: sp, Kernel: classify.DefaultKernel, Precision: opt.Precision,
	})
	if err != nil {
		sp.End()
		return nil, 0, st, err
	}
	pred := svm.PredictAll(scaler.Apply(Xt))
	sp.End()
	return &fitRef{shapelets: shapelets, pred: pred}, pool.Size(), st, nil
}

// traceFit is the traced pass: replayFit on the untraced pass's datasets in
// turn until the measured time is up, each replay checked against the
// untraced ips.Fit and Model.Predict of the same dataset.
func traceFit(ctx context.Context, cfg config, rep *report, t *tally, refs []*fitRef, untracedOpMS samples) error {
	o := obs.New("perfbench.fit")
	stage := map[string]samples{} // seconds per replayFit span name
	var profiles, uncovered, opMS samples
	var candidates int
	var kept float64
	start := runtimeNow()
	sw := obs.NewStopwatch()
	var gen samples
	for k := 0; sw.Elapsed() < cfg.seconds || k == 0; k++ {
		j := k % len(refs)
		train, test, err := generate(uwave, genConfig(cfg, opSeed(cfg.seed, j), 64), &gen)
		if err != nil {
			return err
		}
		op := o.Root().Child("op")
		got, size, st, err := replayFit(ctx, train, test, fitOptions(opSeed(cfg.seed, j)), op)
		op.End()
		if err != nil {
			t.op(fmt.Errorf("traced replay: %w", err))
			return err
		}
		t.op(sameFit(refs[j], got.shapelets, got.pred))
		opMS.addDur(op.Duration())
		covered := 0.0
		for _, c := range op.Children() {
			stage[c.Name()] = append(stage[c.Name()], c.Duration().Seconds())
			covered += c.Duration().Seconds()
		}
		uncovered = append(uncovered, op.Duration().Seconds()-covered)
		profiles = append(profiles, op.ChildByName("candidate-gen").ChildByName("profiles").Duration().Seconds())
		candidates = size
		kept = float64(st.Examined-st.Pruned) / float64(max(st.Examined, 1))
	}
	ops := len(opMS)
	reportRuntime(rep, start, ops)
	rep.median("ip.candidate-gen_s", stage["candidate-gen"], "s")
	rep.set("ip.candidates", float64(candidates), "count", "(per fit)")
	rep.median("mp.profiles_s", profiles, "s")
	rep.median("dabf.build_s", stage["dabf-build"], "s")
	rep.median("dabf.query_s", stage["dabf-query"], "s")
	rep.set("dabf.kept_ratio", kept, "ratio", "(kept / examined, per fit)")
	rep.median("core.selection_s", stage["selection"], "s")
	rep.median("classify.transform_s", stage["transform"], "s")
	rep.median("classify.train_s", stage["train"], "s")
	rep.median("classify.predict_s", stage["predict"], "s")
	reg := o.Metrics()
	reportDistCounters(rep, func(name string) float64 { return float64(reg.Counter(name).Value()) }, ops, "op")
	zero(rep, "classify.series_ms", "serve.http.classify_p50_ms", "serve.http.classify_p99_ms",
		"serve.batch_p50_ms", "serve.batch.jobs_per_group", "serve.admit.rejected", "serve.queue.expired",
		"serve.http.stream_p50_ms", "serve.http.stream_p99_ms", "stream.append_p50_ms", "stream.append_p99_ms",
		"stream.append_first_p50_ms", "stream.append_last_p50_ms", "mp.append_p50_ms", "stream.drift_flags",
		"bench.lag_p99_ms")
	rep.set("bench.untraced_s", uncovered.sum()/float64(ops), "s",
		fmt.Sprintf("(mean per fit outside every stage span, n=%d; %.3f%% of traced time)", ops, 100*uncovered.sum()/(opMS.sum()/1000)))
	rep.set("bench.trace_overhead_ratio", opMS.quantile(0.5)/untracedOpMS.quantile(0.5), "ratio",
		fmt.Sprintf("(median traced replay / median ips.Fit+Predict, n=%d/%d)", ops, len(untracedOpMS)))
	return writeArtifacts(cfg, o, rep, map[string]any{"dataset": uwave, "fits": ops})
}

// reportDistCounters records the distance engine's kernel counters per
// operation; counter reads one counter's value over the traced pass.
func reportDistCounters(rep *report, counter func(name string) float64, ops int, op string) {
	n := float64(max(ops, 1))
	note := fmt.Sprintf("(per %s, n=%d)", op, ops)
	for _, name := range []string{"dist.kernel.rolling", "dist.kernel.fft", "dist.rolling.lb_skipped"} {
		rep.set(name, counter(name)/n, "count/op", note)
	}
}
