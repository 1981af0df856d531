package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"ips/internal/mp"
	"ips/internal/obs"
)

// StreamBenchResult is one series-length measurement of the streaming
// append path: the steady-state per-append cost of the incremental profile
// against the full SelfJoinCtx recompute an append used to pay.
type StreamBenchResult struct {
	N int `json:"n"`
	W int `json:"w"`
	// AppendMicros is the mean per-append wall time (µs) of
	// mp.Incremental.Append at this series length.
	AppendMicros float64 `json:"append_micros"`
	// RecomputeMicros is the wall time (µs) of one full SelfJoinCtx over the
	// same series — the per-append cost before this optimisation.
	RecomputeMicros float64 `json:"recompute_micros"`
	// Speedup is RecomputeMicros / AppendMicros.
	Speedup float64 `json:"speedup"`
}

// StreamBenchReport is the snapshot written to BENCH_stream.json.
type StreamBenchReport struct {
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"numcpu"`
	Quick      bool                `json:"quick"`
	Results    []StreamBenchResult `json:"results"`
}

// streamBenchSizes returns the series-length grid for the current mode.
func (h *Harness) streamBenchSizes() []int {
	if h.Quick {
		return []int{1000, 4000}
	}
	return []int{1000, 4000, 16000, 64000}
}

// StreamBench measures the STOMPI append path: the mean per-append cost at
// each series length, next to the full-recompute cost a quadratic append
// path would pay.  The incremental column should grow linearly with n and
// sit far under the recompute column; both produce byte-identical profiles
// (pinned by the mp test suite), so the gap is pure bookkeeping win.
func (h *Harness) StreamBench(ctx context.Context) (*StreamBenchReport, error) {
	ctx = benchCtx(ctx)
	const w = 50
	report := &StreamBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      h.Quick,
	}
	rows := make([][]string, 0, len(h.streamBenchSizes()))
	for _, n := range h.streamBenchSizes() {
		if err := ctxErr(ctx, "bench.stream"); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(h.Seed))
		series := make([]float64, n+256)
		v := 0.0
		for i := range series {
			v += rng.NormFloat64()
			series[i] = v
		}

		// Steady state: seed with n points, time the next 256 appends.
		inc, err := mp.NewIncremental(series[:n], w)
		if err != nil {
			return nil, err
		}
		inc.Reserve(len(series))
		sw := obs.NewStopwatch()
		for _, p := range series[n:] {
			if err := inc.Append(p); err != nil {
				return nil, err
			}
		}
		appendUS := sw.Elapsed().Seconds() * 1e6 / 256

		// What each append used to cost: a full profile recompute.
		best := 0.0
		for attempt := 0; attempt < 3; attempt++ {
			sw := obs.NewStopwatch()
			if _, err := mp.SelfJoinCtx(ctx, series[:n], w, nil, mp.Options{Workers: 1}); err != nil {
				return nil, err
			}
			el := sw.Elapsed().Seconds() * 1e6
			if attempt == 0 || el < best {
				best = el
			}
		}

		res := StreamBenchResult{N: n, W: w, AppendMicros: appendUS, RecomputeMicros: best, Speedup: best / appendUS}
		report.Results = append(report.Results, res)
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(w),
			fmt.Sprintf("%.2f", res.AppendMicros), fmt.Sprintf("%.1f", res.RecomputeMicros),
			fmt.Sprintf("%.1f", res.Speedup),
		})
	}
	fmt.Fprintf(h.out(), "STOMPI append (GOMAXPROCS=%d)\n", report.GOMAXPROCS)
	table(h.out(), []string{"N", "w", "append µs", "recompute µs", "speedup"}, rows)
	return report, nil
}

// WriteJSON writes the report to path as indented JSON.
func (r *StreamBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
