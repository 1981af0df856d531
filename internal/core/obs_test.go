package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ips/internal/classify"
	"ips/internal/obs"
)

// TestDiscoverDeterministicUnderInstrumentation reproduces the worker
// determinism guarantee with observability fully enabled: spans, metrics,
// and a concurrent progress callback must not perturb the discovered
// shapelets or the transform features for any worker count.  Run under
// -race this also proves the instrumentation itself is data-race free.
func TestDiscoverDeterministicUnderInstrumentation(t *testing.T) {
	train := plantedDataset(10, 60, 2, 7)

	type outcome struct {
		shapelets []classify.Shapelet
		features  [][]float64
	}
	runWith := func(workers int) outcome {
		o := obs.New("test")
		o.OnProgress(func(string, int, int) {}) // concurrent no-op sink
		opt := smallOptions(7)
		opt.Workers = workers
		opt.Obs = o
		res, err := Discover(context.Background(), train, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		X, err := classify.TransformWith(context.Background(), train, res.Shapelets,
			classify.TransformConfig{Workers: workers, Span: o.Root().Child("transform")})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		o.Finish()
		return outcome{shapelets: res.Shapelets, features: X}
	}

	seq := runWith(1)
	par := runWith(4)
	if !reflect.DeepEqual(seq.shapelets, par.shapelets) {
		t.Fatal("shapelets differ between Workers=1 and Workers=4 under instrumentation")
	}
	if !reflect.DeepEqual(seq.features, par.features) {
		t.Fatal("transform features differ between Workers=1 and Workers=4 under instrumentation")
	}
}

// TestTimingsAreSpanViews checks that Result.Timings is the span tree seen
// through the legacy struct, under the default configuration and the two
// ablations the benches time: every stage duration equals its span's
// duration, the discover span names the dataset and which of the DABF, DT
// and CR ran, and Fit fills the Transform/Train extension.
func TestTimingsAreSpanViews(t *testing.T) {
	train := plantedDataset(8, 60, 2, 3)
	for _, cfg := range []struct {
		name                     string
		noDABF, noDT, noCR       bool
		wantDABF, wantDT, wantCR bool
	}{
		{name: "defaults", wantDABF: true, wantDT: true, wantCR: true},
		{name: "DisableDABF", noDABF: true, wantCR: true},
		{name: "DisableDT+DisableCR", noDT: true, noCR: true, wantDABF: true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			o := obs.New("test")
			opt := smallOptions(3)
			opt.DisableDABF, opt.DisableDT, opt.DisableCR = cfg.noDABF, cfg.noDT, cfg.noCR
			opt.Obs = o
			model, err := Fit(context.Background(), train, opt)
			if err != nil {
				t.Fatal(err)
			}
			tm := model.Discovery.Timings

			dsp := o.Root().ChildByName("discover")
			if dsp == nil {
				t.Fatal("no discover span")
			}
			for _, c := range []struct {
				name string
				got  int64
			}{
				{"candidate-gen", int64(tm.CandidateGen)},
				{"pruning", int64(tm.Pruning)},
				{"selection", int64(tm.Selection)},
			} {
				sp := dsp.ChildByName(c.name)
				if sp == nil {
					t.Fatalf("no %s span", c.name)
				}
				if int64(sp.Duration()) != c.got {
					t.Fatalf("%s: timing %v != span %v", c.name, c.got, sp.Duration())
				}
			}
			attrs := map[string]any{}
			for _, a := range dsp.Attrs() {
				attrs[a.Key] = a.Value
			}
			want := map[string]any{"dataset": train.Name,
				"dabf": cfg.wantDABF, "dt": cfg.wantDT, "cr": cfg.wantCR}
			if !reflect.DeepEqual(attrs, want) {
				t.Fatalf("discover attributes %v, want %v", attrs, want)
			}
			if tm.Transform <= 0 || tm.Train <= 0 {
				t.Fatalf("Fit did not fill Transform/Train: %+v", tm)
			}
			if got := tm.FitTotal(); got != tm.Total()+tm.Transform+tm.Train {
				t.Fatalf("FitTotal = %v", got)
			}
			// The pipeline populated metrics: candidate counters, prune
			// counters, SVM passes.
			reg := o.Metrics()
			if reg.Counter("dabf.prune.examined").Value() == 0 {
				t.Fatal("dabf.prune.examined not incremented")
			}
			if reg.Counter("classify.svm.passes").Value() == 0 {
				t.Fatal("classify.svm.passes not incremented")
			}
			if reg.Counter("classify.transform.dists").Value() == 0 {
				t.Fatal("classify.transform.dists not incremented")
			}
		})
	}
}

// TestFitWithoutObserverStillTimes covers the nil default: no observer, but
// the Timings view still reports every stage.
func TestFitWithoutObserverStillTimes(t *testing.T) {
	train := plantedDataset(8, 60, 2, 3)
	model, err := Fit(context.Background(), train, smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	tm := model.Discovery.Timings
	if tm.CandidateGen <= 0 || tm.Pruning <= 0 || tm.Selection <= 0 || tm.Transform <= 0 || tm.Train <= 0 {
		t.Fatalf("missing timings without observer: %+v", tm)
	}
}

// BenchmarkDiscoverObsOff measures the instrumented Discover path with
// observability off (Options.Obs == nil): the hot loops see only nil-checks,
// so this must stay within noise of the pre-instrumentation baseline.
func BenchmarkDiscoverObsOff(b *testing.B) {
	train := plantedDataset(10, 80, 2, 5)
	opt := smallOptions(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Discover(context.Background(), train, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverObsOn is the same workload with a live observer, to
// quantify the cost of spans + metrics when they are requested.
func BenchmarkDiscoverObsOn(b *testing.B) {
	train := plantedDataset(10, 80, 2, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := smallOptions(5)
		opt.Obs = obs.New("bench")
		if _, err := Discover(context.Background(), train, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiscoverTraceExport is the acceptance check: a traced run emits valid
// Chrome trace-event JSON with nested spans for candidate generation,
// pruning, and selection.
func TestDiscoverTraceExport(t *testing.T) {
	train := plantedDataset(8, 60, 2, 3)
	o := obs.New("ips")
	opt := smallOptions(3)
	opt.Obs = o
	if _, err := Discover(context.Background(), train, opt); err != nil {
		t.Fatal(err)
	}
	o.Finish()
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	byName := map[string]obs.TraceEvent{}
	for _, ev := range tf.TraceEvents {
		byName[ev.Name] = ev
	}
	disc, ok := byName["discover"]
	if !ok {
		t.Fatal("no discover event")
	}
	for _, name := range []string{"candidate-gen", "pruning", "selection"} {
		ev, ok := byName[name]
		if !ok {
			t.Fatalf("no %s event", name)
		}
		if ev.Ts+1 < disc.Ts || ev.Ts+ev.Dur > disc.Ts+disc.Dur+1 {
			t.Fatalf("%s not nested inside discover: %+v vs %+v", name, ev, disc)
		}
	}
	// Deeper nesting exists too: per-class selection and DABF fit spans.
	if _, ok := byName["class-0"]; !ok {
		t.Fatal("no per-class selection span in trace")
	}
	if _, ok := byName["fit.class-0"]; !ok {
		t.Fatal("no DABF fit span in trace")
	}
	if _, ok := byName["profiles"]; !ok {
		t.Fatal("no candidate-gen profiles span in trace")
	}
}
