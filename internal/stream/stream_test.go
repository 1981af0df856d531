package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"ips/internal/classify"
	"ips/internal/errs"
	"ips/internal/faulty"
	"ips/internal/mp"
	"ips/internal/ts"
)

// testShapelets builds a deterministic mixed-length shapelet set.
func testShapelets(seed int64) []classify.Shapelet {
	rng := rand.New(rand.NewSource(seed))
	lengths := []int{5, 9, 17}
	out := make([]classify.Shapelet, 0, 2*len(lengths))
	for _, m := range lengths {
		for c := 0; c < 2; c++ {
			vals := make(ts.Series, m)
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			out = append(out, classify.Shapelet{Class: c, Values: vals, Score: 1})
		}
	}
	return out
}

func randSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(float64(i)/7) + 0.3*rng.NormFloat64()
	}
	return out
}

// batchFeatures computes the reference feature row: classify.TransformWith
// over the series as a one-instance dataset.
func batchFeatures(t *testing.T, series []float64, shapelets []classify.Shapelet, workers int) []float64 {
	t.Helper()
	d := &ts.Dataset{Name: "stream-test", Instances: []ts.Instance{{Values: series, Label: 0}}}
	X, err := classify.TransformWith(context.Background(), d, shapelets, classify.TransformConfig{Workers: workers})
	if err != nil {
		t.Fatalf("TransformWith: %v", err)
	}
	return X[0]
}

// TestStreamFeatureEquivalence is the tentpole contract: after every
// append, the delta-evaluated feature vector is byte-identical to the
// batch classify.TransformWith on the full accumulated series, for every
// worker count, and the maintained profile is byte-identical to SelfJoinCtx.
func TestStreamFeatureEquivalence(t *testing.T) {
	lc := faulty.NewLeakCheck()
	shapelets := testShapelets(1)
	series := randSeries(140, 2)
	s, err := New(Config{Window: 8, Shapelets: shapelets})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for pos := 0; pos < len(series); {
		chunk := 1 + rng.Intn(7)
		if pos+chunk > len(series) {
			chunk = len(series) - pos
		}
		if _, err := s.Append(ctx, series[pos:pos+chunk]); err != nil {
			t.Fatalf("Append at %d: %v", pos, err)
		}
		pos += chunk
		prefix := series[:pos]
		got := s.Features()
		for _, workers := range []int{1, 2, 8} {
			want := batchFeatures(t, prefix, shapelets, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d workers=%d: feature[%d] = %v (%#x) != %v (%#x)",
						pos, workers, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		gotP := s.Profile()
		wantP, err := mp.SelfJoinCtx(context.Background(), prefix, 8, nil, mp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantP.P {
			if math.Float64bits(gotP.P[j]) != math.Float64bits(wantP.P[j]) || gotP.I[j] != wantP.I[j] {
				t.Fatalf("n=%d: profile[%d] = (%v,%d) != (%v,%d)",
					pos, j, gotP.P[j], gotP.I[j], wantP.P[j], wantP.I[j])
			}
		}
	}
	if msg := lc.Done(2 * time.Second); msg != "" {
		t.Fatal(msg)
	}
}

// TestStreamPredictionMatchesBatch pins the full head: stream predictions
// equal scaling + SVM over the batch transform of the same series.
func TestStreamPredictionMatchesBatch(t *testing.T) {
	shapelets := testShapelets(4)
	series := randSeries(90, 5)
	nf := len(shapelets)
	scaler := &classify.Scaler{Mean: make([]float64, nf), Std: make([]float64, nf)}
	rng := rand.New(rand.NewSource(6))
	for i := range scaler.Mean {
		scaler.Mean[i] = rng.NormFloat64()
		scaler.Std[i] = 0.5 + rng.Float64()
	}
	svm := &classify.SVM{Classes: []int{0, 1}, W: [][]float64{make([]float64, nf), make([]float64, nf)}, B: []float64{0.1, -0.1}}
	for i := 0; i < nf; i++ {
		svm.W[0][i] = rng.NormFloat64()
		svm.W[1][i] = rng.NormFloat64()
	}
	s, err := New(Config{Window: 6, Shapelets: shapelets, Scaler: scaler, SVM: svm})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for pos := 0; pos < len(series); pos += 5 {
		end := pos + 5
		if end > len(series) {
			end = len(series)
		}
		up, err := s.Append(ctx, series[pos:end])
		if err != nil {
			t.Fatal(err)
		}
		if !up.HasPred {
			t.Fatalf("no prediction at n=%d", end)
		}
		row := batchFeatures(t, series[:end], shapelets, 1)
		scaled := make([]float64, nf)
		scaler.ApplyRowInto(scaled, row)
		if want := svm.Predict(scaled); up.Pred != want {
			t.Fatalf("n=%d: pred %d != batch %d", end, up.Pred, want)
		}
	}
}

// countdownCtx cancels itself after its Err method has been consulted n
// times, landing the cancellation at an arbitrary internal checkpoint of
// Append — ingest boundaries, the batch evaluation's per-query checks — without
// depending on timing.
type countdownCtx struct {
	context.Context
	left *int
}

func (c countdownCtx) Err() error {
	if *c.left <= 0 {
		return context.Canceled
	}
	*c.left--
	return nil
}

// TestStreamCancellationResume drives appends under every cancellation
// point the countdown context can reach and asserts the resume contract:
// a cancelled append is typed ErrCanceled, and the next good append brings
// the features back byte-identical to the batch transform of everything
// ingested so far.
func TestStreamCancellationResume(t *testing.T) {
	shapelets := testShapelets(7)
	series := randSeries(120, 8)
	for budget := 0; budget < 12; budget++ {
		s, err := New(Config{Window: 5, Shapelets: shapelets})
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		// First a clean prefix, then one append under a counting context.
		if _, err := s.Append(context.Background(), series[:40]); err != nil {
			t.Fatal(err)
		}
		pos = 40
		left := budget
		_, err = s.Append(countdownCtx{context.Background(), &left}, series[pos:pos+30])
		if err != nil && !errors.Is(err, errs.ErrCanceled) {
			t.Fatalf("budget %d: err = %v, want ErrCanceled", budget, err)
		}
		if err == nil {
			pos += 30
		} else {
			// The profile may be ahead of the features (ingest succeeded,
			// evaluation cancelled); all points up to pos+30 may or may not
			// be ingested depending on where the budget ran out.
			pos = s.N()
		}
		// A good append must land byte-identical to batch on the full series.
		if _, err := s.Append(context.Background(), series[pos:]); err != nil {
			t.Fatalf("budget %d: resume append: %v", budget, err)
		}
		got := s.Features()
		want := batchFeatures(t, series, shapelets, 1)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("budget %d: feature[%d] = %v != %v after resume", budget, i, got[i], want[i])
			}
		}
	}
}

// TestStreamBadInput pins the typed-rejection contract at the stream layer.
func TestStreamBadInput(t *testing.T) {
	if _, err := New(Config{Window: 0}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("window 0: err = %v, want ErrBadInput", err)
	}
	s, err := New(Config{Window: 4, Shapelets: testShapelets(9)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Append(ctx, []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.Append(ctx, []float64{1, bad}); !errors.Is(err, errs.ErrBadInput) {
			t.Fatalf("append %v: err = %v, want ErrBadInput", bad, err)
		}
	}
	if s.N() != 5 {
		t.Fatalf("rejected appends mutated state: n = %d", s.N())
	}
}

// TestStreamDefaultWindow: Window 0 takes the shortest shapelet's length,
// and gives the profile and features of a stream configured with it.
func TestStreamDefaultWindow(t *testing.T) {
	shapelets := testShapelets(11)
	series := randSeries(80, 12)
	var streams [2]*Stream
	for i, w := range []int{0, 5} { // 5 is testShapelets' shortest length
		s, err := New(Config{Window: w, Shapelets: shapelets})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if _, err := s.Append(context.Background(), series); err != nil {
			t.Fatalf("window %d: append: %v", w, err)
		}
		streams[i] = s
	}
	def, ref := streams[0], streams[1]
	if def.Window() != 5 {
		t.Fatalf("default window = %d, want 5", def.Window())
	}
	gf, wf := def.Features(), ref.Features()
	for i := range wf {
		if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
			t.Fatalf("feature %d = %v, want %v", i, gf[i], wf[i])
		}
	}
	gp, wp := def.Profile(), ref.Profile()
	if len(gp.P) != len(wp.P) {
		t.Fatalf("profile length %d, want %d", len(gp.P), len(wp.P))
	}
	for i := range wp.P {
		if math.Float64bits(gp.P[i]) != math.Float64bits(wp.P[i]) || gp.I[i] != wp.I[i] {
			t.Fatalf("profile %d = (%v, %d), want (%v, %d)", i, gp.P[i], gp.I[i], wp.P[i], wp.I[i])
		}
	}
}

// TestStreamMaxPoints pins the per-stream admission cap: an append that
// would exceed MaxPoints is refused whole as typed ErrOverload.
func TestStreamMaxPoints(t *testing.T) {
	s, err := New(Config{Window: 3, MaxPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Append(ctx, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, make([]float64, 3)); !errors.Is(err, errs.ErrOverload) {
		t.Fatalf("over-cap append: err = %v, want ErrOverload", err)
	}
	if s.N() != 8 {
		t.Fatalf("refused append mutated state: n = %d", s.N())
	}
	if _, err := s.Append(ctx, make([]float64, 2)); err != nil {
		t.Fatalf("append to exactly the cap should succeed: %v", err)
	}
}

// TestStreamAppendNoAllocs pins the serving-path contract: once the stream
// is reserved and warm, a bounded append allocates nothing end to end —
// ingest, suffix evaluation, scaling, and prediction included.
func TestStreamAppendNoAllocs(t *testing.T) {
	shapelets := testShapelets(10)
	nf := len(shapelets)
	scaler := &classify.Scaler{Mean: make([]float64, nf), Std: make([]float64, nf)}
	for i := range scaler.Std {
		scaler.Std[i] = 1
	}
	svm := &classify.SVM{Classes: []int{0, 1}, W: [][]float64{make([]float64, nf), make([]float64, nf)}, B: []float64{0, 0}}
	s, err := New(Config{Window: 8, Shapelets: shapelets, Scaler: scaler, SVM: svm})
	if err != nil {
		t.Fatal(err)
	}
	warm := randSeries(256, 11)
	extra := randSeries(400, 12)
	s.Reserve(len(warm) + len(extra))
	ctx := context.Background()
	if _, err := s.Append(ctx, warm); err != nil {
		t.Fatal(err)
	}
	k := 0
	avg := testing.AllocsPerRun(len(extra)-1, func() {
		if _, err := s.Append(ctx, extra[k:k+1]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if avg != 0 {
		t.Fatalf("Append allocates %.1f times per call steady-state, want 0", avg)
	}
}

// TestStreamDrift feeds a stable periodic signal, then an anomalous burst,
// and asserts the detector flags during the burst and not during the
// stable phase.
func TestStreamDrift(t *testing.T) {
	s, err := New(Config{Window: 16, Drift: DriftConfig{Factor: 4, MinSamples: 20}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	stable := make([]float64, 400)
	for i := range stable {
		stable[i] = math.Sin(float64(i)/3) + 0.02*rng.NormFloat64()
	}
	for pos := 0; pos < len(stable); pos += 20 {
		up, err := s.Append(ctx, stable[pos:pos+20])
		if err != nil {
			t.Fatal(err)
		}
		if up.Drift && pos > 100 {
			t.Fatalf("spurious drift flag at n=%d (score %.2f)", up.N, up.DriftScore)
		}
	}
	burst := make([]float64, 40)
	for i := range burst {
		burst[i] = 25 * rng.NormFloat64() // regime change: amplitude explosion
	}
	flagged := false
	for pos := 0; pos < len(burst); pos += 10 {
		up, err := s.Append(ctx, burst[pos:pos+10])
		if err != nil {
			t.Fatal(err)
		}
		if up.Drift {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("anomalous burst never flagged drift")
	}
	// Motif/discord surface through the update.
	up, err := s.Append(ctx, stable[:10])
	if err != nil {
		t.Fatal(err)
	}
	if up.Motif < 0 || up.Discord < 0 {
		t.Fatalf("motif/discord not populated: %d/%d", up.Motif, up.Discord)
	}
	if up.DiscordDist <= up.MotifDist {
		t.Fatalf("discord %.3f should exceed motif %.3f", up.DiscordDist, up.MotifDist)
	}
}
