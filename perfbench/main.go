// Command perfbench is the repository's benchmark.  One command runs one of
// three workloads end to end through the calls users make — ips.Fit and
// Model.Predict (fit), ipsd's /v1/classify route (classify) and its
// /v1/stream route (stream), served by an in-process serve.Server on a
// loopback listener — checks every output, and prints each metric with its
// unit and sample count, ending with one JSON result line.  With -trace 1
// it follows the untraced pass with a traced one that times the calls into
// each layer's public functions from these files, and reports per-layer
// metrics.  See README.md.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh -light-rps 320 -heavy-rps 640 --workload fit --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ips/internal/obs"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// lightRPS and heavyRPS are the classify workload's open-loop rates.
	lightRPS, heavyRPS float64
	// small shrinks every workload's data so all three run in seconds.
	small bool
	// outDir receives the traced run's span manifest and Chrome trace.
	outDir string
	commit string
	// plantWrong corrupts one expected answer before timing starts, so the
	// self-test can check that a wrong output is reported as a failure.
	plantWrong bool
}

// runTimeout bounds a whole run: anything still in flight then fails typed
// and is counted, so a stuck run exits non-zero instead of hanging.  A
// traced run measures two passes of up to about 1.5× -seconds each (a
// stream pass ends on a whole session), so four times -seconds plus a
// margin for the set-ups never cuts a healthy run.
func runTimeout(seconds time.Duration) time.Duration { return 4*seconds + 50*time.Second }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs the workload, and returns the exit code:
// 0 only when every output check passed.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(cfg, stdout, stderr)
}

// execute runs one configured workload; see run.
func execute(cfg config, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout(cfg.seconds))
	defer cancel()
	rep := newReport(stdout)
	rep.printf("perfbench workload=%s seed=%d trace=%t seconds=%g small=%t nproc=%d gomaxprocs=%d go=%s commit=%s",
		cfg.workload, cfg.seed, cfg.trace, cfg.seconds.Seconds(), cfg.small,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)
	t := &tally{}
	if err := runWorkload(ctx, cfg, rep, t); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	attempted, failed := t.attempted.Load(), t.failed.Load()
	if attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	fr := float64(failed) / float64(attempted)
	rep.set("fail_ratio", fr, "ratio", fmt.Sprintf("(failed %d of %d attempted)", failed, attempted))
	for _, msg := range t.messages() {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	correct := failed == 0
	line, err := rep.line(defs, correct, attempted, failed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: fit, classify or stream")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&seconds, "seconds", 20, "seconds each measured pass runs")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.Float64Var(&cfg.lightRPS, "light-rps", 0, "classify: open-loop request rate of the light phase (req/s)")
	fs.Float64Var(&cfg.heavyRPS, "heavy-rps", 0, "classify: open-loop request rate of the heavy phase (req/s)")
	fs.BoolVar(&cfg.small, "small", false, "shrink every workload's data so a run takes seconds (self-test mode)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/out", "directory for the traced run's manifest and Chrome trace")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test, recorded with the results")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want fit, classify or stream)", cfg.workload)
	}
	if seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.workload == "classify" && (cfg.lightRPS <= 0 || cfg.heavyRPS <= cfg.lightRPS) {
		return cfg, fmt.Errorf("classify needs 0 < -light-rps < -heavy-rps")
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	return cfg, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, config, *report, *tally) error{
	"fit":      runFit,
	"classify": runClassify,
	"stream":   runStream,
}

func runWorkload(ctx context.Context, cfg config, rep *report, t *tally) error {
	if err := workloads[cfg.workload](ctx, cfg, rep, t); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.set("peak_rss_mb", peakRSSMB(), "MB", "(whole process)")
	return nil
}

// tally counts operations and failed output checks; safe for concurrent use.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

// maxMessages bounds how many failure messages a run keeps for stderr.
const maxMessages = 10

// op records one attempted operation and whether it passed its checks.
func (t *tally) op(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < maxMessages {
		t.msgs = append(t.msgs, err.Error())
	}
	t.mu.Unlock()
}

func (t *tally) messages() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.msgs...)
}

var errMismatch = errors.New("output mismatch")

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeDelta measures Go runtime work over a timed section.
type runtimeDelta struct{ gc, alloc uint64 }

func runtimeNow() runtimeDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeDelta{gc: uint64(m.NumGC), alloc: m.TotalAlloc}
}

// reportRuntime records GC cycles and allocated MiB per operation since
// start.
func reportRuntime(rep *report, start runtimeDelta, ops int) {
	end := runtimeNow()
	n := float64(max(ops, 1))
	note := fmt.Sprintf("(per op over the traced pass, n=%d ops)", ops)
	rep.set("go.gc_cycles", float64(end.gc-start.gc)/n, "count/op", note)
	rep.set("go.alloc_mb", float64(end.alloc-start.alloc)/(1<<20)/n, "MB/op", note)
}

// zero records per-layer metrics of layers idle in this workload.
func zero(rep *report, names ...string) {
	for _, n := range names {
		unit := ""
		for _, d := range perLayer {
			if d.Name == n {
				unit = d.Unit
			}
		}
		rep.set(n, 0, unit, "(layer idle in this workload)")
	}
}

// writeArtifacts writes the traced run's span tree as an ipsobs manifest and
// as a Chrome trace under cfg.outDir.
func writeArtifacts(cfg config, o *obs.Observer, rep *report, extra map[string]any) error {
	o.Finish()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s/%s-seed%d", cfg.outDir, cfg.workload, cfg.seed)
	conf := map[string]any{
		"workload": cfg.workload, "seconds": cfg.seconds.Seconds(), "small": cfg.small,
		"nproc": runtime.NumCPU(), "commit": cfg.commit,
	}
	for k, v := range extra {
		conf[k] = v
	}
	m := obs.BuildManifest(o, obs.RunInfo{Tool: "perfbench", Seed: cfg.seed, Config: conf})
	if err := m.WriteFile(base + ".manifest.json"); err != nil {
		return err
	}
	if err := o.WriteTraceFile(base + ".trace.json"); err != nil {
		return err
	}
	rep.printf("  artifacts: %s.manifest.json (go run ./cmd/ipsobs report), %s.trace.json (Chrome trace)", base, base)
	return nil
}
