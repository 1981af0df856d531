package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ips"
	"ips/internal/classify"
	"ips/internal/mp"
	"ips/internal/obs"
	"ips/internal/ts"
)

const (
	// italy is the stream workload's dataset: 24-point daily series.
	italy       = "ItalyPowerDemand"
	streamModel = "italy"
	// streamWindow is one day, as examples/stream uses.
	streamWindow = 24
	// warmPoints is how many points each connection appends to a
	// throwaway session to warm a fresh server up.
	warmPoints = 2000
	// maxStreamPoints is serve.Config's default per-session point cap; the
	// direct replica gets the same cap.
	maxStreamPoints = 1 << 20
	// probeEvery and streamProbes: the host probe runs streamProbes times
	// after every probeEvery-th append of an untraced session.
	probeEvery   = 500
	streamProbes = 2
)

// session is one stream session's input and expected final prediction.
type session struct {
	series   []float64
	expected int
	bodies   [][]byte
}

// streamResponse is the part of the /v1/stream response the checks read.
type streamResponse struct {
	Session     string  `json:"session"`
	N           int     `json:"n"`
	Windows     int     `json:"windows"`
	Prediction  *int    `json:"prediction"`
	Drift       bool    `json:"drift"`
	DriftScore  float64 `json:"drift_score"`
	Motif       int     `json:"motif"`
	Discord     int     `json:"discord"`
	MotifDist   float64 `json:"motif_dist"`
	DiscordDist float64 `json:"discord_dist"`
}

// streamSessions builds one series per connection, each the whole test
// split concatenated in a seeded order.
func streamSessions(seed int64, test *ts.Dataset) []*session {
	out := make([]*session, connections)
	for s := range out {
		rng := rand.New(rand.NewSource(seed*1000 + int64(s)))
		var series []float64
		for _, i := range rng.Perm(test.Len()) {
			series = append(series, test.Instances[i].Values...)
		}
		ses := &session{series: series, bodies: make([][]byte, len(series))}
		for i, v := range series {
			ses.bodies[i] = strconv.AppendFloat([]byte(`{"points":[`), v, 'g', -1, 64)
			ses.bodies[i] = append(ses.bodies[i], "]}"...)
		}
		out[s] = ses
	}
	return out
}

// replica is the traced run's direct copy of one session: an
// ips.NewStreamConfig stream and an mp.NewIncremental profile fed the same
// points, timed per call.
type replica struct {
	st  *ips.Stream
	inc *mp.Incremental
}

// streamTimes are one pass's per-append timings, in ms.
type streamTimes struct {
	http        samples // round trip of every append
	first, last samples // HTTP round trips in each session's first and last tenth
	direct      samples // Stream.Append on the replica
	dFirst      samples
	dLast       samples
	mpAppend    samples // Incremental.Append + MinIndex + MaxIndex
	drift       int
	points      int
}

func (s *streamTimes) merge(o streamTimes) {
	s.http = append(s.http, o.http...)
	s.first = append(s.first, o.first...)
	s.last = append(s.last, o.last...)
	s.direct = append(s.direct, o.direct...)
	s.dFirst = append(s.dFirst, o.dFirst...)
	s.dLast = append(s.dLast, o.dLast...)
	s.mpAppend = append(s.mpAppend, o.mpAppend...)
	s.drift += o.drift
	s.points += o.points
}

// streamBench is one stream set-up.
type streamBench struct {
	model    *ips.Model
	sessions []*session
	tally    *tally
}

// drive opens a session on c, appends every point of ses one per request,
// checks each response (and, traced, compares it to a direct replica's
// update), checks the final prediction, and closes the session.  It samples
// the host probe (nil: none) between appends.
func (b *streamBench) drive(ctx context.Context, c *conn, ses *session, traced bool, probe *hostProbe) (streamTimes, error) {
	var tm streamTimes
	var created streamResponse
	err := c.do(ctx, "POST", "/v1/stream?model="+streamModel+"&window="+strconv.Itoa(streamWindow), nil, &created)
	b.op(err)
	if err != nil {
		return tm, err
	}
	id := "/v1/stream?session=" + created.Session
	var rep *replica
	if traced {
		st, err := ips.NewStreamConfig(ips.StreamConfig{
			Window: streamWindow, Shapelets: b.model.Shapelets, Scaler: b.model.Scaler, SVM: b.model.SVM,
			MaxPoints: maxStreamPoints,
		})
		if err != nil {
			return tm, err
		}
		inc, err := mp.NewIncremental(nil, streamWindow)
		if err != nil {
			return tm, err
		}
		rep = &replica{st: st, inc: inc}
	}
	n := len(ses.series)
	tenth := n / 10
	sw := obs.NewStopwatch()
	for i := 0; i < n; i++ {
		var resp streamResponse
		start := sw.Elapsed()
		err := c.do(ctx, "POST", id, ses.bodies[i], &resp)
		d := sw.Elapsed() - start
		if err == nil {
			err = checkAppend(resp, i, n, ses)
		}
		if err == nil && traced {
			err = b.replay(ctx, rep, ses.series[i], resp, &tm, i < tenth, i >= n-tenth)
		}
		b.op(err)
		if err != nil {
			return tm, err
		}
		tm.http.addDur(d)
		if i < tenth {
			tm.first.addDur(d)
		} else if i >= n-tenth {
			tm.last.addDur(d)
		}
		if resp.Drift {
			tm.drift++
		}
		tm.points++
		if i%probeEvery == probeEvery-1 {
			probe.sample(streamProbes)
		}
	}
	err = c.do(ctx, "DELETE", id, nil, nil)
	b.op(err)
	return tm, err
}

func (b *streamBench) op(err error) {
	if b.tally != nil {
		b.tally.op(err)
	}
}

// checkAppend checks one append's response: the session grew by one point,
// and after the last point the prediction equals Model.Predict's on the
// whole series.
func checkAppend(resp streamResponse, i, n int, ses *session) error {
	if resp.N != i+1 {
		return fmt.Errorf("%w: append %d reports %d points", errMismatch, i, resp.N)
	}
	if i == n-1 && ses.expected >= 0 && (resp.Prediction == nil || *resp.Prediction != ses.expected) {
		got := "none"
		if resp.Prediction != nil {
			got = strconv.Itoa(*resp.Prediction)
		}
		return fmt.Errorf("%w: final stream prediction %s, Model.Predict on the whole series says %d", errMismatch, got, ses.expected)
	}
	return nil
}

// replay feeds v to the direct replicas, times each, and requires the HTTP
// update to equal the direct stream's.
func (b *streamBench) replay(ctx context.Context, r *replica, v float64, resp streamResponse, tm *streamTimes, first, last bool) error {
	sw := obs.NewStopwatch()
	up, err := r.st.Append(ctx, []float64{v})
	d := sw.Elapsed()
	if err != nil {
		return err
	}
	tm.direct.addDur(d)
	if first {
		tm.dFirst.addDur(d)
	} else if last {
		tm.dLast.addDur(d)
	}
	sw = obs.NewStopwatch()
	if err := r.inc.Append(v); err != nil {
		return err
	}
	motif, discord := r.inc.MinIndex(), r.inc.MaxIndex()
	tm.mpAppend.addDur(sw.Elapsed())

	same := resp.N == up.N && resp.Windows == up.Windows && (resp.Prediction != nil) == up.HasPred &&
		(!up.HasPred || *resp.Prediction == up.Pred) && resp.Drift == up.Drift &&
		math.Float64bits(resp.DriftScore) == math.Float64bits(up.DriftScore) &&
		resp.Motif == up.Motif && resp.Discord == up.Discord &&
		math.Float64bits(resp.MotifDist) == math.Float64bits(up.MotifDist) &&
		math.Float64bits(resp.DiscordDist) == math.Float64bits(up.DiscordDist) &&
		motif == up.Motif && discord == up.Discord
	if !same {
		return fmt.Errorf("%w: HTTP update at point %d differs from the direct replica's", errMismatch, up.N)
	}
	return nil
}

// warm appends warmPoints to a throwaway session on every connection.
func (b *streamBench) warm(ctx context.Context, conns []*conn) error {
	for _, c := range conns {
		n := min(warmPoints, len(b.sessions[0].series))
		ses := &session{series: b.sessions[0].series[:n], bodies: b.sessions[0].bodies[:n], expected: -1}
		if _, err := b.drive(ctx, c, ses, false, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// setupStream generates ItalyPowerDemand, fits it, and serves the model;
// the caller times it.
func setupStream(ctx context.Context, cfg config, gen *samples) (*streamBench, *ts.Dataset, *harness, []*conn, error) {
	train, test, err := generate(italy, genConfig(cfg, cfg.seed, 40), gen)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	m, err := ips.Fit(ctx, train, fitOptions(cfg.seed))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	b := &streamBench{model: m, sessions: streamSessions(cfg.seed, test)}
	h, err := startHarness(ctx, m, streamModel, obs.New("ipsd"), false)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	conns := newConns(h.base)
	if err := b.warm(ctx, conns); err != nil {
		closeConns(conns)
		return nil, nil, nil, nil, errors.Join(err, h.close(ctx))
	}
	return b, test, h, conns, nil
}

// measureSessions drives whole sessions one at a time, session k on
// connection k mod 2 with that connection's series, so every run times
// complete sessions: at least one, then another as long as it would end
// closer to the measured time than stopping does.  Sessions take turns
// rather than run side by side: two concurrent sessions keep both CPUs of
// the defining machine busy with STOMPI passes, and their append latency
// then spread twice as much between runs as one session at a time did
// (README.md, Steadiness).
func (b *streamBench) measureSessions(ctx context.Context, cfg config, conns []*conn, traced bool, probe *hostProbe, root *obs.Span) (streamTimes, float64, int, error) {
	var all streamTimes
	wall := 0.0
	n := 0
	for n == 0 || wall+wall/float64(n)/2 < cfg.seconds.Seconds() {
		sp := root.Child("session")
		sw := obs.NewStopwatch()
		tm, err := b.drive(ctx, conns[n%len(conns)], b.sessions[n%len(b.sessions)], traced, probe)
		wall += sw.Elapsed().Seconds()
		sp.SetInt("points", int64(tm.points))
		sp.End()
		all.merge(tm)
		n++
		if err != nil {
			return all, wall, n, err
		}
	}
	return all, wall, n, nil
}

func runStream(ctx context.Context, cfg config, rep *report, t *tally) error {
	var setup, gen samples
	var b *streamBench
	var test *ts.Dataset
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
		if b, test, h, conns, err = setupStream(ctx, cfg, &gen); err != nil {
			return err
		}
		setup = append(setup, sw.Elapsed().Seconds())
	}
	defer closeConns(conns)
	rep.printf("stream: %s model, sessions of %d points (test split %d × %d), window %d, one at a time over %d connections",
		italy, len(b.sessions[0].series), test.Len(), test.SeriesLen(), streamWindow, connections)
	rep.median("setup_s", setup, "s")

	// Expected answers, outside the setup time.
	pred, err := b.model.Predict(ctx, test)
	if err != nil {
		return errors.Join(err, h.close(ctx))
	}
	acc := classify.Accuracy(pred, test.Labels())
	t.op(checkAccuracy(acc, test))
	for _, ses := range b.sessions {
		whole := &ts.Dataset{Name: italy, Instances: []ts.Instance{{Values: ses.series}}}
		p, err := b.model.Predict(ctx, whole)
		if err != nil {
			return errors.Join(err, h.close(ctx))
		}
		ses.expected = p[0]
	}
	if cfg.plantWrong {
		b.sessions[0].expected++
	}
	b.tally = t

	probe := newHostProbe(1)
	tm, wall, sessions, err := b.measureSessions(ctx, cfg, conns, false, probe, nil)
	if cerr := h.close(ctx); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, errMismatch) {
		return err
	}
	rate := float64(tm.points) / wall
	rep.printf("stream: %d sessions, %d points in %.1fs", sessions, tm.points, wall)
	rep.median("append_p50_ms", tm.http, "ms")
	rep.p99("append_p99_ms", tm.http, "ms")
	rep.median("append_first_p50_ms", tm.first, "ms")
	rep.median("append_last_p50_ms", tm.last, "ms")
	rep.set("stream_points_per_s", rate, "points/s", fmt.Sprintf("(n=%d points)", tm.points))
	rep.set("accuracy_pct", acc, "%", fmt.Sprintf("(Model.Predict of the streamed model on its %d test series, majority class %.2f%%)", test.Len(), 100*majority(test)))
	rep.median("latency_p50_ms", tm.http, "ms")
	rep.scaled(tm.http, probe)

	if !cfg.trace {
		return nil
	}
	rep.median("ucr.generate_s", gen, "s")
	return traceStream(ctx, cfg, rep, b, tm)
}

// traceStream repeats the sessions against a second server with an Observer
// on serve.Config.Obs and the timing handler around its routes, replaying
// every point into the direct replicas.
func traceStream(ctx context.Context, cfg config, rep *report, b *streamBench, untraced streamTimes) error {
	o := obs.New("perfbench.stream")
	h, err := startHarness(ctx, b.model, streamModel, o, true)
	if err != nil {
		return err
	}
	conns := newConns(h.base)
	defer closeConns(conns)
	if err := b.warm(ctx, conns); err != nil {
		return errors.Join(err, h.close(ctx))
	}
	h.timing.take()
	start := runtimeNow()
	tm, _, sessions, err := b.measureSessions(ctx, cfg, conns, true, nil, o.Root())
	if cerr := h.close(ctx); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, errMismatch) {
		return err
	}
	_, handlerMS := h.timing.take()
	reportRuntime(rep, start, tm.points)
	zero(rep, "ip.candidate-gen_s", "ip.candidates", "mp.profiles_s", "dabf.build_s", "dabf.query_s",
		"dabf.kept_ratio", "core.selection_s", "classify.transform_s", "classify.train_s", "classify.predict_s",
		"dist.kernel.rolling", "dist.kernel.fft", "dist.rolling.lb_skipped", "classify.series_ms",
		"serve.http.classify_p50_ms", "serve.http.classify_p99_ms", "serve.batch_p50_ms", "serve.batch.jobs_per_group",
		"serve.admit.rejected", "serve.queue.expired", "bench.lag_p99_ms")
	rep.median("serve.http.stream_p50_ms", handlerMS, "ms")
	rep.p99("serve.http.stream_p99_ms", handlerMS, "ms")
	rep.median("stream.append_p50_ms", tm.direct, "ms")
	rep.p99("stream.append_p99_ms", tm.direct, "ms")
	rep.median("stream.append_first_p50_ms", tm.dFirst, "ms")
	rep.median("stream.append_last_p50_ms", tm.dLast, "ms")
	rep.median("mp.append_p50_ms", tm.mpAppend, "ms")
	rep.set("stream.drift_flags", float64(tm.drift), "count", fmt.Sprintf("(appends flagged, n=%d appends in %d sessions)", tm.points, sessions))
	n := float64(max(len(tm.http), 1))
	rep.set("bench.untraced_s", (tm.http.sum()-handlerMS.sum())/1000/n, "s",
		fmt.Sprintf("(mean per append outside ServeHTTP, n=%d; %.1f%% of round-trip time)",
			len(handlerMS), 100*(1-handlerMS.sum()/max(tm.http.sum(), 1e-9))))
	rep.set("bench.trace_overhead_ratio", tm.http.quantile(0.5)/untraced.http.quantile(0.5), "ratio",
		fmt.Sprintf("(append round-trip median traced / untraced, n=%d/%d)", len(tm.http), len(untraced.http)))
	return writeArtifacts(cfg, o, rep, map[string]any{
		"dataset": italy, "window": streamWindow, "sessions": len(b.sessions), "connections": connections,
	})
}
