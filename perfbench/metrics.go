package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric the JSON result line carries.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).  Every workload
// reports all of them, each with its own meaning per workload (README.md has
// the table); the workload-specific metrics (fit_s, classify_rps,
// append_p50_ms, …) are printed in the human-readable report above the JSON
// line.  The throughputs are among those: on the 2-CPU machine the benchmark
// was defined on, the median classify_rps of two sets of ten runs of the
// same code differed by 35%, beyond the largest bound (0.25) a gated metric
// may have.  The latency is each workload's median scaled by the host probe
// (probe.go); the raw median is printed as latency_p50_ms.  fit's latency
// is the whole Fit + Predict operation, so a slower Model.Predict still
// shows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_norm_ms", "ms"},
}

// perLayer are the metrics of a traced run (--trace 1).  Each name starts
// with the module that is the layer; a layer idle in a workload's timed
// section reports 0 there.
var perLayer = []metricDef{
	{"ucr.generate_s", "s"},
	{"ip.candidate-gen_s", "s"},
	{"ip.candidates", "count"},
	{"mp.profiles_s", "s"},
	{"dabf.build_s", "s"},
	{"dabf.query_s", "s"},
	{"dabf.kept_ratio", "ratio"},
	{"core.selection_s", "s"},
	{"classify.transform_s", "s"},
	{"classify.train_s", "s"},
	{"classify.predict_s", "s"},
	{"dist.kernel.rolling", "count/op"},
	{"dist.kernel.fft", "count/op"},
	{"dist.rolling.lb_skipped", "count/op"},
	{"classify.series_ms", "ms"},
	{"serve.http.classify_p50_ms", "ms"},
	{"serve.http.classify_p99_ms", "ms"},
	{"serve.batch_p50_ms", "ms"},
	{"serve.batch.jobs_per_group", "jobs/group"},
	{"serve.admit.rejected", "count"},
	{"serve.queue.expired", "count"},
	{"serve.http.stream_p50_ms", "ms"},
	{"serve.http.stream_p99_ms", "ms"},
	{"stream.append_p50_ms", "ms"},
	{"stream.append_p99_ms", "ms"},
	{"stream.append_first_p50_ms", "ms"},
	{"stream.append_last_p50_ms", "ms"},
	{"mp.append_p50_ms", "ms"},
	{"stream.drift_flags", "count"},
	{"go.gc_cycles", "count/op"},
	{"go.alloc_mb", "MB/op"},
	{"bench.lag_p99_ms", "ms"},
	{"bench.untraced_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.probe_ms", "ms"},
}

// samples is a set of recorded observations (one per operation).
// Percentiles are exact order statistics over them, never estimates.
type samples []float64

// addDur records a duration in milliseconds.
func (s *samples) addDur(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least ⌈q·n⌉ samples at or below it.  It returns 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank(q, len(sorted))-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// beyond is the number of samples ranked above the q-quantile; a tail
// percentile is trustworthy only with at least ten.
func beyond(q float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - rank(q, n)
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, prints each as a human-readable line
// with its unit and sample count, and renders the final JSON line.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]metric{}}
}

// printf writes a free-form report line.
func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// set records a metric; note says what its sample count is.
func (r *report) set(name string, v float64, unit string, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.printf("  %-34s %14.6g %-10s %s", name, v, unit, note)
}

// median records the median of s and notes its sample count.
func (r *report) median(name string, s samples, unit string) {
	r.set(name, s.quantile(0.5), unit, fmt.Sprintf("(median, n=%d)", len(s)))
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as a tail.
const minBeyond = 10

// p99 records the nearest-rank 99th percentile of s and notes how many
// samples lie beyond it.  Every p99 the benchmark prints has thousands of
// samples in a full run; in small mode some have fewer than minBeyond
// beyond them, and the note says the value is no tail then.
func (r *report) p99(name string, s samples, unit string) {
	note := fmt.Sprintf("(p99, n=%d, %d beyond)", len(s), beyond(0.99, len(s)))
	if beyond(0.99, len(s)) < minBeyond {
		note = fmt.Sprintf("(p99, n=%d, only %d beyond: too few for a tail)", len(s), beyond(0.99, len(s)))
	}
	r.set(name, s.quantile(0.99), unit, note)
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line renders the result line for the given metric set; a metric the run
// did not record is an error, so a workload can never silently drop one.
func (r *report) line(defs []metricDef, correct bool, attempted, failed int64) ([]byte, error) {
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not recorded", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s recorded in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		out.Metrics[d.Name] = m
	}
	return json.Marshal(out)
}
