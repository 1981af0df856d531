// Command ipsbench regenerates the tables and figures of the IPS paper's
// evaluation section (§IV).  Each experiment prints the same rows/series the
// paper reports, measured on the synthetic UCR substitute (or real UCR TSV
// files when -data is given).
//
// Usage:
//
//	ipsbench [flags] <experiment>...
//
// Experiments (the usage message prints the same names, sorted):
//
//	table2 table3 table4 table5 table6 table7
//	fig9 fig10a fig10bc fig11 fig12 fig13
//	all      (table2 through fig13, in that order)
//	table6x  (additional measured methods: RotF, LTS, FS)
//	fig11m   (Fig. 11 ranked on measured accuracies)
//	params   (Q_N × Q_S sensitivity, the §IV-A grids)
//	cote     (the full 11-classifier weighted-vote ensemble)
//	ablation (DT / CR / DABF / discord-candidate ablations)
//
// Performance is measured by perfbench (perfbench/README.md) and the
// go-test benchmarks, not here.
//
// Flags:
//
//	-full        full-scale run; without it, dataset sizes are capped for a
//	             CI-scale run
//	-data DIR    load real UCR TSV files from DIR instead of generating
//	-seed N      random seed (default 1)
//	-k N         shapelets per class (default 5)
//	-runs N      repetitions averaged for randomised methods (default 1)
//	-workers N   parallelise the IPS pipeline and STOMP kernels; results
//	             are identical for any value (default 1)
//	-timeout D   abort the suite after D (e.g. 10m); a timed-out suite exits
//	             with status 1 (0 = no limit)
//
// Observability (see internal/obs):
//
//	-log-level L      structured logging to stderr: off (default), debug,
//	                  info, warn, or error
//	-log-json         emit structured logs as JSON instead of text
//	-manifest FILE    write a run manifest (config, environment, span tree,
//	                  metrics with quantiles, flight-recorder samples) when
//	                  the suite finishes; inspect/compare with cmd/ipsobs
//	-trace FILE       write every IPS run's span tree as Chrome trace_event
//	                  JSON to FILE when the suite finishes
//	-debug-addr ADDR  serve net/http/pprof, expvar, /metrics, and the flight
//	                  recorder at /debug/flight on ADDR (e.g. :6060)
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

	"ips/internal/bench"
	"ips/internal/errs"
	"ips/internal/obs"
)

func main() {
	full := flag.Bool("full", false, "full-scale run (default: dataset sizes capped for a CI-scale run)")
	data := flag.String("data", "", "directory with real UCR TSV files")
	seed := flag.Int64("seed", 1, "random seed")
	k := flag.Int("k", 5, "shapelets per class")
	runs := flag.Int("runs", 1, "repetitions averaged for randomised methods")
	workers := flag.Int("workers", 1, "parallelise the IPS pipeline and STOMP kernels (results identical for any value)")
	logLevel := flag.String("log-level", "off", "structured log level: off, debug, info, warn, or error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	manifestPath := flag.String("manifest", "", "write a run manifest (JSON) to this file; inspect with ipsobs")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON of all IPS runs to this file")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof, expvar, /metrics, and /debug/flight on this address (e.g. :6060)")
	timeout := flag.Duration("timeout", 0, "abort the suite after this long, e.g. 10m (0 = no limit)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipsbench:", err)
		os.Exit(2)
	}

	ctx := obs.WithLogger(context.Background(), logger)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	h := &bench.Harness{
		Quick:   !*full,
		DataDir: *data,
		Seed:    *seed,
		K:       *k,
		Runs:    *runs,
		Out:     os.Stdout,
		Workers: *workers,
	}
	experiments := map[string]func() error{
		"table2":   func() error { _, err := h.Table2(ctx); return err },
		"table3":   func() error { _, err := h.Table3(ctx); return err },
		"table4":   func() error { _, err := h.Table4(ctx, nil); return err },
		"table5":   func() error { _, err := h.Table5(ctx, nil); return err },
		"table6":   func() error { _, err := h.Table6(ctx, nil); return err },
		"table7":   func() error { _, err := h.Table7(ctx, nil); return err },
		"fig9":     func() error { _, err := h.Fig9(ctx, nil); return err },
		"fig10a":   func() error { _, err := h.Fig10a(ctx, nil); return err },
		"fig10bc":  func() error { _, err := h.Fig10bc(ctx, nil); return err },
		"fig11":    func() error { _, err := h.Fig11(nil); return err },
		"fig12":    func() error { _, err := h.Fig12(ctx, nil); return err },
		"fig13":    func() error { _, err := h.Fig13(ctx); return err },
		"table6x":  func() error { _, err := h.Table6Extended(ctx, nil); return err },
		"fig11m":   func() error { _, err := h.Fig11Measured(ctx, nil); return err },
		"params":   func() error { _, err := h.Params(ctx, nil); return err },
		"cote":     func() error { _, err := h.COTE(ctx, nil); return err },
		"ablation": func() error { _, err := h.Ablation(ctx, nil); return err },
	}

	if flag.NArg() == 0 {
		known := make([]string, 0, len(experiments)+1)
		for name := range experiments {
			known = append(known, name)
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "usage: ipsbench [flags] <%s>...\n", strings.Join(append(known, "all"), "|"))
		flag.PrintDefaults()
		os.Exit(2)
	}

	var o *obs.Observer
	if *tracePath != "" || *debugAddr != "" || *manifestPath != "" {
		o = obs.New("ipsbench")
		o.Metrics().SetLogger(obs.Log(ctx))
		h.Obs = o
	}
	var flight *obs.FlightRecorder
	if *manifestPath != "" || *debugAddr != "" {
		flight = obs.StartFlight(ctx, 10*time.Millisecond, 1024)
	}
	if *debugAddr != "" {
		_, addr, err := obs.ServeDebug(*debugAddr, o.Metrics(), flight)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipsbench: debug server:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (pprof /debug/pprof/, metrics /metrics, flight /debug/flight)\n", addr)
	}

	order := []string{
		"table2", "table3", "table4", "table5", "table6", "table7",
		"fig9", "fig10a", "fig10bc", "fig11", "fig12", "fig13",
	}

	var names []string
	for _, arg := range flag.Args() {
		if arg == "all" {
			names = order
			break
		}
		names = append(names, arg)
	}

	writeManifest := func(runErr error) {
		if *manifestPath == "" {
			return
		}
		flight.Stop()
		o.Finish()
		man := obs.BuildManifest(o, obs.RunInfo{
			Tool: "ipsbench", Seed: *seed,
			Config: map[string]any{
				"experiments": strings.Join(names, ","),
				"full":        *full, "k": *k, "runs": *runs,
				"workers": *workers,
			},
			Err: runErr, Flight: flight,
		})
		if err := man.WriteFile(*manifestPath); err != nil {
			fmt.Fprintf(os.Stderr, "ipsbench: writing manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "manifest written to %s\n", *manifestPath)
	}

	for _, name := range names {
		run, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "ipsbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		obs.Log(ctx).Info("experiment starting", "experiment", name)
		sw := obs.NewStopwatch()
		if err := run(); err != nil {
			obs.Log(ctx).Error("experiment failed", obs.ErrAttrs(err)...)
			writeManifest(err)
			if errors.Is(err, errs.ErrCanceled) {
				fmt.Fprintf(os.Stderr, "ipsbench: %s: suite canceled (timeout %v): %v\n", name, *timeout, err)
			} else {
				fmt.Fprintf(os.Stderr, "ipsbench: %s: %v\n", name, err)
			}
			os.Exit(1)
		}
		obs.Log(ctx).Info("experiment done",
			"experiment", name, "elapsed", sw.Elapsed())
		fmt.Println()
	}

	writeManifest(nil)
	if *tracePath != "" {
		o.Finish()
		if err := o.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "ipsbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *tracePath)
	}
	flight.Stop()
}
