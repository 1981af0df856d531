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

// MPBenchResult is one (N, w, workers) kernel measurement.
type MPBenchResult struct {
	N       int     `json:"n"`
	W       int     `json:"w"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// Speedup is the ratio of the Workers=1 time at the same (N, w) to
	// this time (1.0 for the Workers=1 row itself).
	Speedup float64 `json:"speedup"`
}

// MPBenchReport is the full kernel snapshot written to BENCH_mp.json.
type MPBenchReport struct {
	// GOMAXPROCS records the parallelism available when the snapshot was
	// taken: speedups are only meaningful up to this many workers.
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numcpu"`
	Quick      bool            `json:"quick"`
	Results    []MPBenchResult `json:"results"`
}

// mpBenchSizes returns the (N, w) grid for the current mode.  Quick keeps
// CI inside seconds; full includes the 16k-point series the perf
// trajectory tracks.
func (h *Harness) mpBenchSizes() [][2]int {
	if h.Quick {
		return [][2]int{{2048, 64}, {4096, 128}}
	}
	return [][2]int{{4096, 128}, {16384, 64}, {16384, 256}}
}

// MPBench measures the STOMP self-join kernel on synthetic random walks at
// Workers ∈ {1, 2, 4, 8}, prints the table, and returns the report.
// Unlike the paper-reproduction experiments in this package, it benchmarks
// the substrate itself — SelfJoinCtx wall time across series lengths, windows,
// and worker counts — so successive PRs have a comparable perf trajectory
// (snapshot it with WriteJSON as BENCH_mp.json).  Each cell is the best of
// three runs: the minimum is the least noisy estimator of the true cost.
func (h *Harness) MPBench(ctx context.Context) (*MPBenchReport, error) {
	ctx = benchCtx(ctx)
	report := &MPBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      h.Quick,
	}
	workerCounts := []int{1, 2, 4, 8}
	rows := make([][]string, 0, len(h.mpBenchSizes())*len(workerCounts))
	for _, size := range h.mpBenchSizes() {
		n, w := size[0], size[1]
		if err := ctxErr(ctx, "bench.mp"); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(h.Seed))
		series := make([]float64, n)
		v := 0.0
		for i := range series {
			v += rng.NormFloat64()
			series[i] = v
		}
		var base float64
		for _, workers := range workerCounts {
			best := 0.0
			for attempt := 0; attempt < 3; attempt++ {
				sw := obs.NewStopwatch()
				if _, err := mp.SelfJoinCtx(ctx, series, w, nil, mp.Options{Workers: workers}); err != nil {
					return nil, err
				}
				el := sw.Elapsed().Seconds()
				if attempt == 0 || el < best {
					best = el
				}
			}
			if workers == 1 {
				base = best
			}
			res := MPBenchResult{N: n, W: w, Workers: workers, Seconds: best, Speedup: base / best}
			report.Results = append(report.Results, res)
			rows = append(rows, []string{
				fmt.Sprint(n), fmt.Sprint(w), fmt.Sprint(workers),
				fmt.Sprintf("%.4f", res.Seconds), fmt.Sprintf("%.2f", res.Speedup),
			})
		}
	}
	fmt.Fprintf(h.out(), "MP kernel (GOMAXPROCS=%d)\n", report.GOMAXPROCS)
	table(h.out(), []string{"N", "w", "workers", "seconds", "speedup"}, rows)
	return report, nil
}

// WriteJSON writes the report to path as indented JSON.
func (r *MPBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
