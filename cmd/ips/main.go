// Command ips trains an IPS shapelet classifier on a dataset and reports its
// test accuracy, the discovered shapelets, and the per-stage timing
// breakdown.
//
// Usage:
//
//	ips -dataset GunPoint                       # synthetic UCR substitute
//	ips -dataset GunPoint -data /path/to/UCR    # real UCR TSV files
//	ips -train a_TRAIN.tsv -test a_TEST.tsv     # explicit files
//
// Flags:
//
//	-k N         shapelets per class (default 5)
//	-qn N        bagging samples per class (default 10)
//	-qs N        instances per sample (default 3)
//	-seed N      random seed (default 1)
//	-timeout D   abort the run after D (e.g. 30s, 5m); a timed-out run exits
//	             with status 1 after reporting how far it got (0 = no limit)
//	-workers N   parallelise the pipeline; output identical for any value
//	-show N      print the first N shapelets as sparklines (default 3)
//	-save FILE   write the trained model to FILE as JSON
//	-load FILE   classify with a previously saved model instead of training
//
// Observability (see internal/obs):
//
//	-log-level L      structured logging to stderr: off (default), debug,
//	                  info, warn, or error; the library is silent at off
//	-log-json         emit structured logs as JSON instead of text
//	-manifest FILE    write a run manifest: config, seed, environment,
//	                  dataset hash, span tree with wall times, metrics with
//	                  p50/p95/p99 summaries, accuracy, flight-recorder
//	                  samples, and the typed error if the run failed.
//	                  Inspect/compare with cmd/ipsobs.  (Training runs only;
//	                  ignored with -load.)
//	-trace FILE       write the run's span tree as Chrome trace_event JSON
//	                  (open in chrome://tracing or Perfetto)
//	-spans            print the span tree after the run
//	-progress         stream stage progress to stderr
//	-debug-addr ADDR  serve net/http/pprof, expvar, /metrics, and the
//	                  flight recorder at /debug/flight on ADDR (e.g. :6060)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	ips "ips"
	"ips/internal/obs"
	"ips/internal/ts"
	"ips/internal/ucr"
)

func main() {
	dataset := flag.String("dataset", "", "UCR dataset name (generated synthetically unless -data is set)")
	data := flag.String("data", "", "directory with real UCR TSV files")
	trainPath := flag.String("train", "", "training TSV file (overrides -dataset)")
	testPath := flag.String("test", "", "test TSV file (overrides -dataset)")
	k := flag.Int("k", 5, "shapelets per class")
	qn := flag.Int("qn", 10, "bagging samples per class (Q_N)")
	qs := flag.Int("qs", 3, "instances per sample (Q_S)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 1, "parallelise the pipeline (output identical for any value)")
	show := flag.Int("show", 3, "print the first N shapelets as sparklines")
	savePath := flag.String("save", "", "write the trained model to this JSON file")
	loadPath := flag.String("load", "", "classify with a previously saved model instead of training")
	logLevel := flag.String("log-level", "off", "structured log level: off, debug, info, warn, or error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	manifestPath := flag.String("manifest", "", "write a run manifest (JSON) to this file; inspect with ipsobs")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON of the run to this file")
	spans := flag.Bool("spans", false, "print the span tree after the run")
	progress := flag.Bool("progress", false, "stream stage progress to stderr")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof, expvar, /metrics, and /debug/flight on this address (e.g. :6060)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long, e.g. 30s or 5m (0 = no limit)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ips:", err)
		os.Exit(2)
	}

	ctx := obs.WithLogger(context.Background(), logger)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	train, test, err := loadData(*dataset, *data, *trainPath, *testPath, *seed)
	if err != nil {
		obs.Log(ctx).Error("loading data failed", obs.ErrAttrs(err)...)
		fmt.Fprintln(os.Stderr, "ips:", err)
		os.Exit(1)
	}

	if *loadPath != "" {
		classifyWithSavedModel(ctx, *loadPath, test)
		return
	}

	// Observability: a full observer (spans + metrics) when any hook is
	// requested; nil otherwise, which keeps the hot loops no-op.
	var o *ips.Observer
	if *tracePath != "" || *spans || *progress || *debugAddr != "" || *manifestPath != "" {
		o = ips.NewObserver("ips")
		o.Metrics().SetLogger(obs.Log(ctx))
	}
	if *progress {
		o.OnProgress(func(stage string, done, total int) {
			fmt.Fprintf(os.Stderr, "\r%-16s %d/%d", stage, done, total)
			if done >= total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}

	// Flight recorder: sample runtime health for the manifest and the
	// /debug/flight endpoint whenever either consumer exists.
	var flight *obs.FlightRecorder
	if *manifestPath != "" || *debugAddr != "" {
		flight = obs.StartFlight(ctx, 5*time.Millisecond, 1024)
	}

	if *debugAddr != "" {
		_, addr, err := obs.ServeDebug(*debugAddr, o.Metrics(), flight)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ips: debug server:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (pprof /debug/pprof/, metrics /metrics, flight /debug/flight)\n", addr)
	}

	opt := ips.DefaultOptions()
	opt.K = *k
	opt.IP.QN = *qn
	opt.IP.QS = *qs
	opt.IP.Seed = *seed
	opt.DABF.Seed = *seed
	opt.SVM.Seed = *seed
	opt.Workers = *workers
	opt.Obs = o

	config := map[string]any{
		"k": *k, "qn": *qn, "qs": *qs, "workers": *workers,
		"dataset": *dataset, "train": *trainPath, "test": *testPath,
	}
	writeManifest := func(acc *float64, runErr error) {
		if *manifestPath == "" {
			return
		}
		flight.Stop()
		man := obs.BuildManifest(o, obs.RunInfo{
			Tool: "ips", Seed: *seed, Config: config,
			Dataset: &obs.DatasetInfo{
				Name: train.Name, Hash: train.ContentHash(),
				Train: train.Len(), Test: test.Len(),
				Length: train.SeriesLen(), Classes: len(train.Classes()),
			},
			Accuracy: acc, Err: runErr, Flight: flight,
		})
		if err := man.WriteFile(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "ips: writing manifest:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "manifest written to %s\n", *manifestPath)
	}

	acc, model, err := ips.Evaluate(ctx, train, test, opt)
	if err != nil {
		o.Finish()
		obs.Log(ctx).Error("run failed", obs.ErrAttrs(err)...)
		writeManifest(nil, err)
		if errors.Is(err, ips.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "ips: run canceled (timeout %v): %v\n", *timeout, err)
		} else {
			fmt.Fprintln(os.Stderr, "ips:", err)
		}
		os.Exit(1)
	}
	o.Finish()
	writeManifest(&acc, nil)
	d := model.Discovery
	fmt.Printf("dataset            %s (%d train / %d test, length %d, %d classes)\n",
		train.Name, train.Len(), test.Len(), train.SeriesLen(), len(train.Classes()))
	fmt.Printf("accuracy           %.2f%%\n", acc)
	fmt.Printf("candidates         %d generated, %d after DABF pruning\n", d.PoolSize, d.PrunedSize)
	fmt.Printf("shapelets          %d (k=%d per class)\n", len(model.Shapelets), *k)
	fmt.Printf("timings            generate %.3fs  prune %.3fs  select %.3fs  discovery %.3fs\n",
		d.Timings.CandidateGen.Seconds(), d.Timings.Pruning.Seconds(),
		d.Timings.Selection.Seconds(), d.Timings.Total().Seconds())
	fmt.Printf("                   transform %.3fs  train %.3fs  fit total %.3fs\n",
		d.Timings.Transform.Seconds(), d.Timings.Train.Seconds(), d.Timings.FitTotal().Seconds())
	var fits []string
	for c, f := range d.FitsByClass {
		fits = append(fits, fmt.Sprintf("class %d: %s", c, f))
	}
	sort.Strings(fits)
	fmt.Printf("DABF fits          %s\n", strings.Join(fits, ", "))

	if *savePath != "" {
		if err := model.SaveFile(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, "ips: saving model:", err)
			os.Exit(1)
		}
		fmt.Printf("model saved to     %s\n", *savePath)
	}

	if *spans {
		fmt.Println("\nspan tree:")
		o.RenderTree(os.Stdout)
	}
	if *tracePath != "" {
		if err := o.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "ips: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to   %s\n", *tracePath)
	}

	if *show > 0 {
		fmt.Println("\ntop shapelets:")
		shown := 0
		for _, s := range model.Shapelets {
			if shown >= *show {
				break
			}
			fmt.Printf("  class %d len %3d score %7.3f  %s\n",
				s.Class, len(s.Values), s.Score, ts.Spark(s.Values))
			shown++
		}
	}
	flight.Stop()
}

// classifyWithSavedModel loads a serialized model and reports its accuracy
// on the test split.
func classifyWithSavedModel(ctx context.Context, path string, test *ips.Dataset) {
	model, err := ips.LoadModel(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ips: loading model:", err)
		os.Exit(1)
	}
	pred, err := model.Predict(ctx, test)
	if err != nil {
		obs.Log(ctx).Error("prediction failed", obs.ErrAttrs(err)...)
		fmt.Fprintln(os.Stderr, "ips: predicting:", err)
		os.Exit(1)
	}
	correct := 0
	for i, in := range test.Instances {
		if pred[i] == in.Label {
			correct++
		}
	}
	fmt.Printf("loaded model       %s (%d shapelets)\n", path, len(model.Shapelets))
	fmt.Printf("accuracy           %.2f%% on %d instances\n",
		100*float64(correct)/float64(test.Len()), test.Len())
}

func loadData(dataset, dataDir, trainPath, testPath string, seed int64) (train, test *ips.Dataset, err error) {
	switch {
	case trainPath != "" && testPath != "":
		train, err = ucr.LoadTSV(trainPath)
		if err != nil {
			return nil, nil, err
		}
		test, err = ucr.LoadTSV(testPath)
		return train, test, err
	case dataset != "" && dataDir != "":
		return ucr.LoadSplit(dataDir, dataset)
	case dataset != "":
		return ucr.GenerateByName(dataset, ips.GenConfig{Seed: seed})
	default:
		return nil, nil, fmt.Errorf("need -dataset, or -train and -test")
	}
}
