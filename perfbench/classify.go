package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ips"
	"ips/internal/classify"
	"ips/internal/obs"
	"ips/internal/ts"
)

// classifyModel is the name the UWave model is served under.
const classifyModel = "uwave"

// classifyDataSeed generates the served model's dataset and seeds its fit:
// the fit workload's first draw, on every run.  The model is
// a fixture and the workload seed drives the traffic (request order and
// arrival times): the per-request cost of UWave models fitted from
// different seeds spread 16% (interquartile range over median, 12 seeds),
// most of the latency bound, so a model per seed would gate on which model
// a seed happened to fit rather than on the program.
const classifyDataSeed = fitPoolBase

// warmRequests is how many requests each connection sends to warm a fresh
// server up before anything is timed.
const warmRequests = 32

// classifyBench holds one classify set-up: the model, its test split as
// ready-to-send request bodies, and the expected prediction of each.
type classifyBench struct {
	model    *ips.Model
	test     *ts.Dataset
	bodies   [][]byte
	expected []int
	// order is a seeded permutation of the test split; request i sends
	// test series order[i mod n].
	order []int
	next  atomic.Int64 // request counter
	tally *tally
}

// send POSTs the next test series to /v1/classify and checks the
// prediction against Model.Predict's.
func (b *classifyBench) send(ctx context.Context, c *conn) error {
	i := b.order[int(b.next.Add(1)-1)%len(b.order)]
	var resp struct {
		Predictions []int `json:"predictions"`
	}
	err := c.do(ctx, "POST", "/v1/classify?model="+classifyModel, b.bodies[i], &resp)
	if err == nil && b.expected != nil && (len(resp.Predictions) != 1 || resp.Predictions[0] != b.expected[i]) {
		err = fmt.Errorf("%w: test series %d predicted %v, Model.Predict says %d", errMismatch, i, resp.Predictions, b.expected[i])
	}
	if b.tally != nil {
		b.tally.op(err)
	}
	return err
}

// warm sends warmRequests per connection, closed-loop; before the expected
// answers exist they go unchecked.
func (b *classifyBench) warm(ctx context.Context, conns []*conn) error {
	for _, c := range conns {
		for i := 0; i < warmRequests; i++ {
			if err := b.send(ctx, c); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// setupClassify generates UWave, fits it, and serves the model; the caller
// times it.
func setupClassify(ctx context.Context, cfg config, gen *samples) (*classifyBench, *harness, []*conn, error) {
	train, test, err := generate(uwave, genConfig(cfg, classifyDataSeed, 64), gen)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := ips.Fit(ctx, train, fitOptions(classifyDataSeed))
	if err != nil {
		return nil, nil, nil, err
	}
	b := &classifyBench{model: m, test: test, bodies: make([][]byte, test.Len()),
		order: rand.New(rand.NewSource(cfg.seed)).Perm(test.Len())}
	for i, in := range test.Instances {
		if b.bodies[i], err = json.Marshal(map[string][][]float64{"instances": {in.Values}}); err != nil {
			return nil, nil, nil, err
		}
	}
	h, err := startHarness(ctx, m, classifyModel, obs.New("ipsd"), false)
	if err != nil {
		return nil, nil, nil, err
	}
	conns := newConns(h.base)
	if err := b.warm(ctx, conns); err != nil {
		closeConns(conns)
		return nil, nil, nil, errors.Join(err, h.close(ctx))
	}
	return b, h, conns, nil
}

// classifyPhases are one pass's three load phases.
type classifyPhases struct{ light, heavy, closed phase }

// classifyProbes is how many times the host probe runs after each block.
const classifyProbes = 3

// blockDur is the length of one phase block.  The measured time is cut into
// cycles of a light, a heavy and a closed-loop block, so every phase samples
// the whole run rather than one stretch of it: on a shared machine whose
// speed drifts over seconds, back-to-back phases would each see a different
// machine.
const blockDur = time.Second

// runPhases runs cycles of a light and a heavy open-loop block and a
// closed-loop capacity block, each phase getting a third of the measured
// time, one span per block under root (nil when untraced), and samples the
// host probe (nil: none) after each block.  after, when non-nil, runs at
// the end of each block.
func runPhases(ctx context.Context, cfg config, conns []*conn, send sendFunc, probe *hostProbe, root *obs.Span, after func(name string)) classifyPhases {
	block := min(blockDur, cfg.seconds/3)
	cycles := max(int(cfg.seconds/(3*block)), 1)
	var p classifyPhases
	run := func(name string, into *phase, load func() phase) {
		sp := root.Child(name)
		ph := load()
		sp.SetInt("requests", int64(len(ph.lat)))
		sp.End()
		into.merge(ph)
		probe.sample(classifyProbes)
		if after != nil {
			after(name)
		}
	}
	for c := int64(0); c < int64(cycles); c++ {
		seed := cfg.seed*1_000_000 + 2*c
		run("light", &p.light, func() phase { return openLoop(ctx, conns, cfg.lightRPS, block, seed, send) })
		run("heavy", &p.heavy, func() phase { return openLoop(ctx, conns, cfg.heavyRPS, block, seed+1, send) })
		run("closed", &p.closed, func() phase { return closedLoop(ctx, conns, block, send) })
	}
	return p
}

func (p classifyPhases) rps() float64 {
	return float64(len(p.closed.lat)) / p.closed.wall.Seconds()
}

func runClassify(ctx context.Context, cfg config, rep *report, t *tally) error {
	var setup, gen samples
	var b *classifyBench
	var h *harness
	var conns []*conn
	for i := 0; i < setupRepeats; i++ {
		if h != nil {
			closeConns(conns)
			if err := h.close(ctx); err != nil {
				return err
			}
		}
		sw := obs.NewStopwatch()
		var err error
		if b, h, conns, err = setupClassify(ctx, cfg, &gen); err != nil {
			return err
		}
		setup = append(setup, sw.Elapsed().Seconds())
	}
	defer closeConns(conns)
	rep.printf("classify: %s test=%d length=%d, %d connections, rates %g and %g req/s, zero-value serve.Config",
		uwave, b.test.Len(), b.test.SeriesLen(), connections, cfg.lightRPS, cfg.heavyRPS)
	rep.median("setup_s", setup, "s")

	// Expected answers, outside the setup time.
	var err error
	if b.expected, err = b.model.Predict(ctx, b.test); err != nil {
		return errors.Join(err, h.close(ctx))
	}
	acc := classify.Accuracy(b.expected, b.test.Labels())
	t.op(checkAccuracy(acc, b.test))
	if cfg.plantWrong {
		b.expected[b.order[0]]++ // the first request's series
	}
	b.tally = t
	b.next.Store(0)

	probe := newHostProbe(1)
	p := runPhases(ctx, cfg, conns, b.send, probe, nil, nil)
	if err := h.close(ctx); err != nil {
		return err
	}
	rep.median("classify_light_p50_ms", p.light.lat, "ms")
	rep.p99("classify_light_p99_ms", p.light.lat, "ms")
	rep.median("classify_heavy_p50_ms", p.heavy.lat, "ms")
	rep.p99("classify_heavy_p99_ms", p.heavy.lat, "ms")
	rep.set("classify_rps", p.rps(), "req/s", fmt.Sprintf("(closed loop, n=%d requests in %.2fs)", len(p.closed.lat), p.closed.wall.Seconds()))
	rep.median("closed_p50_ms", p.closed.lat, "ms")
	rep.p99("closed_p99_ms", p.closed.lat, "ms")
	lag := append(append(samples(nil), p.light.lag...), p.heavy.lag...)
	rep.p99("generator_lag_p99_ms", lag, "ms")
	rep.set("accuracy_pct", acc, "%", fmt.Sprintf("(n=%d served test series, majority class %.2f%%)", b.test.Len(), 100*majority(b.test)))
	rep.median("classify_light_sent_p50_ms", p.light.sent, "ms")
	rep.median("latency_p50_ms", p.light.sent, "ms")
	rep.scaled(p.light.sent, probe)

	if !cfg.trace {
		return nil
	}
	rep.median("ucr.generate_s", gen, "s")
	return traceClassify(ctx, cfg, rep, b, p, lag)
}

// traceClassify repeats the three phases against a second server with an
// Observer on serve.Config.Obs and the timing handler around its routes,
// then times Model.Predict on single series directly.
func traceClassify(ctx context.Context, cfg config, rep *report, b *classifyBench, untraced classifyPhases, lag samples) error {
	o := obs.New("perfbench.classify")
	h, err := startHarness(ctx, b.model, classifyModel, o, true)
	if err != nil {
		return err
	}
	conns := newConns(h.base)
	defer closeConns(conns)
	if err := b.warm(ctx, conns); err != nil {
		return errors.Join(err, h.close(ctx))
	}
	before := manifestMetrics(o)
	h.timing.take()
	start := runtimeNow()
	var handlerMS, closedHandlerMS samples
	p := runPhases(ctx, cfg, conns, b.send, nil, o.Root(), func(name string) {
		hs, _ := h.timing.take()
		handlerMS = append(handlerMS, hs...)
		if name == "closed" {
			closedHandlerMS = append(closedHandlerMS, hs...)
		}
	})
	if err := h.close(ctx); err != nil {
		return err
	}
	requests := len(handlerMS)
	reportRuntime(rep, start, requests)

	// classify.series_ms: Model.Predict on one series, called directly.
	sp := o.Root().Child("direct-predict")
	var series samples
	sw := obs.NewStopwatch()
	for i := 0; i < b.test.Len() && (sw.Elapsed() < cfg.seconds/4 || i < 100); i++ {
		one := &ts.Dataset{Name: b.test.Name, Instances: b.test.Instances[i : i+1]}
		psw := obs.NewStopwatch()
		pred, err := b.model.Predict(ctx, one)
		series.addDur(psw.Elapsed())
		if err == nil && pred[0] != b.expected[i] {
			err = fmt.Errorf("%w: direct Model.Predict of test series %d is class %d, want %d", errMismatch, i, pred[0], b.expected[i])
		}
		b.tally.op(err)
	}
	sp.SetInt("series", int64(len(series)))
	sp.End()

	after := manifestMetrics(o)
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	zero(rep, "ip.candidate-gen_s", "ip.candidates", "mp.profiles_s", "dabf.build_s", "dabf.query_s",
		"dabf.kept_ratio", "core.selection_s", "classify.transform_s", "classify.train_s", "classify.predict_s",
		"serve.http.stream_p50_ms", "serve.http.stream_p99_ms", "stream.append_p50_ms", "stream.append_p99_ms",
		"stream.append_first_p50_ms", "stream.append_last_p50_ms", "mp.append_p50_ms", "stream.drift_flags")
	reportDistCounters(rep, counter, requests, "request")
	rep.median("classify.series_ms", series, "ms")
	rep.median("serve.http.classify_p50_ms", handlerMS, "ms")
	rep.p99("serve.http.classify_p99_ms", handlerMS, "ms")
	p50, groups, lo, hi := histMedian(before.Histograms["serve.batch.ms"], after.Histograms["serve.batch.ms"])
	rep.set("serve.batch_p50_ms", p50, "ms",
		fmt.Sprintf("(serve.batch.ms histogram over the measured phases, interpolated in its (%g, %g] ms bucket, n=%d groups)", lo, hi, groups))
	rep.set("serve.batch.jobs_per_group", counter("serve.batch.jobs")/max(counter("serve.batch.groups"), 1), "jobs/group",
		fmt.Sprintf("(n=%.0f groups)", counter("serve.batch.groups")))
	rep.set("serve.admit.rejected", counter("serve.admit.rejected"), "count", "(traced pass)")
	rep.set("serve.queue.expired", counter("serve.queue.expired"), "count", "(traced pass)")
	rep.p99("bench.lag_p99_ms", lag, "ms")
	closed := float64(max(len(closedHandlerMS), 1))
	rep.set("bench.untraced_s", (p.closed.lat.sum()-closedHandlerMS.sum())/1000/closed, "s",
		fmt.Sprintf("(closed loop: mean per request outside ServeHTTP, n=%d; %.1f%% of round-trip time)",
			len(closedHandlerMS), 100*(1-closedHandlerMS.sum()/p.closed.lat.sum())))
	rep.set("bench.trace_overhead_ratio", p.closed.lat.quantile(0.5)/untraced.closed.lat.quantile(0.5), "ratio",
		fmt.Sprintf("(closed-loop median latency traced / untraced, n=%d/%d)", len(p.closed.lat), len(untraced.closed.lat)))
	return writeArtifacts(cfg, o, rep, map[string]any{
		"dataset": uwave, "light_rps": cfg.lightRPS, "heavy_rps": cfg.heavyRPS, "connections": connections,
	})
}

// histMedian is the median of the observations a histogram gained between
// two snapshots, interpolated linearly within the bucket that holds it —
// the histogram's buckets are the only record of batch times outside the
// program.  It also returns the count and that bucket's bounds.
func histMedian(before, after obs.HistSnapshot) (p50 float64, n int64, lo, hi float64) {
	counts := make([]int64, len(after.Counts))
	for i, c := range after.Counts {
		counts[i] = c
		if i < len(before.Counts) {
			counts[i] -= before.Counts[i]
		}
		n += counts[i]
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	r := (n + 1) / 2 // nearest rank of the median
	cum := int64(0)
	for i, c := range counts {
		if i > 0 {
			lo = after.Bounds[i-1]
		}
		hi = lo // the overflow bucket has no upper bound
		if i < len(after.Bounds) {
			hi = after.Bounds[i]
		}
		if cum+c >= r {
			return lo + (hi-lo)*float64(r-cum)/float64(c), n, lo, hi
		}
		cum += c
	}
	return lo, n, lo, hi
}

// manifestMetrics snapshots o's registry through the manifest encoding.
func manifestMetrics(o *obs.Observer) obs.MetricsDump {
	m := obs.BuildManifest(o, obs.RunInfo{}).Metrics
	if m == nil {
		return obs.MetricsDump{}
	}
	return *m
}
