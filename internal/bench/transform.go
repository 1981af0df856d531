package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"ips/internal/classify"
	"ips/internal/dist"
	"ips/internal/obs"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// TransformBenchResult is one (dataset, shapelet length) transform
// measurement: the naive per-pair ts.Dist loop against the batched engine,
// both single-threaded, so the ratio isolates the algorithmic win (shared
// sliding statistics, norm-bound pruning, fft crossover) from parallelism.
type TransformBenchResult struct {
	Dataset      string `json:"dataset"`
	Instances    int    `json:"instances"`
	SeriesLen    int    `json:"series_len"`
	ShapeletLen  int    `json:"shapelet_len"`
	NumShapelets int    `json:"num_shapelets"`
	// Kernel is the crossover's choice for this (shapelet, series) shape.
	Kernel        string  `json:"kernel"`
	NaiveSeconds  float64 `json:"naive_seconds"`
	EngineSeconds float64 `json:"engine_seconds"`
	// Speedup is naive over engine wall time (single worker on both sides).
	Speedup float64 `json:"speedup"`
}

// TransformBenchReport is the full transform snapshot written to
// BENCH_transform.json.
type TransformBenchReport struct {
	// GOMAXPROCS records available parallelism; both sides of every row run
	// single-threaded, so speedups here are algorithmic, not parallel.
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"numcpu"`
	Quick      bool                   `json:"quick"`
	Results    []TransformBenchResult `json:"results"`
}

// transformBenchCells returns the (dataset, instance cap, shapelet lengths,
// shapelets per length) grid.  GunPoint (150 points) and Mallat (1024
// points) stay on the rolling kernel under the auto crossover; HandOutlines'
// 2709-point series cross into fft at the 1024-point length.
func (h *Harness) transformBenchCells() []struct {
	dataset  string
	maxTrain int
	lengths  []int
	perLen   int
} {
	type cell = struct {
		dataset  string
		maxTrain int
		lengths  []int
		perLen   int
	}
	if h.Quick {
		return []cell{
			{"GunPoint", 30, []int{16, 64}, 8},
			{"Mallat", 8, []int{64, 512}, 4},
			{"HandOutlines", 4, []int{1024}, 4},
		}
	}
	return []cell{
		{"GunPoint", 50, []int{16, 64, 100}, 16},
		{"Mallat", 24, []int{64, 256, 512}, 16},
		{"HandOutlines", 10, []int{256, 1024}, 8},
	}
}

// TransformBench measures the shapelet transform — the embedding hot path
// every classifier in the repo funnels through — as a (dataset × shapelet
// length) grid, comparing the per-pair ts.Dist loop the transform used
// before the batched engine against classify.TransformWith at h.Precision.
// Both sides run single-threaded and each cell is the best of three runs;
// the engine's output is verified against the naive loop (byte-identical at
// float64, within tolerance at float32) before timing is reported.
// Snapshot with WriteJSON as BENCH_transform.json.
func (h *Harness) TransformBench(ctx context.Context) (*TransformBenchReport, error) {
	ctx = benchCtx(ctx)
	report := &TransformBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      h.Quick,
	}
	var rows [][]string
	for _, cell := range h.transformBenchCells() {
		if err := ctxErr(ctx, "bench.transform"); err != nil {
			return nil, err
		}
		// Generated directly (not via Load) so the harness's MaxLength cap
		// does not truncate the long series the fft crossover needs.
		train, _, err := ucr.GenerateByName(cell.dataset, ucr.GenConfig{
			Seed: h.Seed, MaxTrain: cell.maxTrain, MaxTest: 1,
		})
		if err != nil {
			return nil, err
		}
		n := train.SeriesLen()
		for _, L := range cell.lengths {
			if L > n {
				continue
			}
			shapelets := make([]classify.Shapelet, cell.perLen)
			for i := range shapelets {
				in := train.Instances[i%len(train.Instances)]
				at := (i * 31) % (len(in.Values) - L + 1)
				shapelets[i] = classify.Shapelet{Class: in.Label, Values: in.Values[at : at+L].Clone()}
			}
			naive := func() [][]float64 {
				out := make([][]float64, len(train.Instances))
				for j, in := range train.Instances {
					row := make([]float64, len(shapelets))
					for si, s := range shapelets {
						row[si] = ts.Dist(s.Values, in.Values)
					}
					out[j] = row
				}
				return out
			}
			var want, got [][]float64
			naiveBest, engineBest := 0.0, 0.0
			for attempt := 0; attempt < 3; attempt++ {
				sw := obs.NewStopwatch()
				want = naive()
				if el := sw.Elapsed().Seconds(); attempt == 0 || el < naiveBest {
					naiveBest = el
				}
				sw = obs.NewStopwatch()
				got, err = classify.TransformWith(ctx, train, shapelets, classify.TransformConfig{Precision: h.Precision})
				if err != nil {
					return nil, err
				}
				if el := sw.Elapsed().Seconds(); attempt == 0 || el < engineBest {
					engineBest = el
				}
			}
			// At float64 the engine is byte-identical to ts.Dist by
			// contract; under -precision float32 it returns the distance of
			// the rounded inputs, so the check relaxes to the documented
			// relative tolerance instead of exact bits.
			for j := range want {
				for si := range want[j] {
					if h.Precision == dist.PrecisionFloat32 {
						scale := 1.0
						if want[j][si] > scale {
							scale = want[j][si]
						}
						if math.Abs(got[j][si]-want[j][si]) <= 1e-3*scale {
							continue
						}
					} else if math.Float64bits(got[j][si]) == math.Float64bits(want[j][si]) {
						continue
					}
					return nil, fmt.Errorf("bench: transform diverged from ts.Dist on %s L=%d at [%d][%d]: %v vs %v",
						cell.dataset, L, j, si, got[j][si], want[j][si])
				}
			}
			res := TransformBenchResult{
				Dataset:       cell.dataset,
				Instances:     len(train.Instances),
				SeriesLen:     n,
				ShapeletLen:   L,
				NumShapelets:  len(shapelets),
				Kernel:        dist.KernelFor(L, n).String(),
				NaiveSeconds:  naiveBest,
				EngineSeconds: engineBest,
				Speedup:       naiveBest / engineBest,
			}
			report.Results = append(report.Results, res)
			rows = append(rows, []string{
				cell.dataset, fmt.Sprint(res.Instances), fmt.Sprint(n), fmt.Sprint(L),
				fmt.Sprint(res.NumShapelets), res.Kernel,
				fmt.Sprintf("%.4f", res.NaiveSeconds), fmt.Sprintf("%.4f", res.EngineSeconds),
				fmt.Sprintf("%.2f", res.Speedup),
			})
		}
	}
	fmt.Fprintf(h.out(), "shapelet transform (GOMAXPROCS=%d, both sides single-threaded)\n", report.GOMAXPROCS)
	table(h.out(), []string{"dataset", "inst", "n", "L", "|S|", "kernel", "naive s", "engine s", "speedup"}, rows)
	return report, nil
}

// WriteJSON writes the report to path as indented JSON.
func (r *TransformBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
