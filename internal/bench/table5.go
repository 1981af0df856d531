package bench

import (
	"context"
	"fmt"
	"time"

	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/ip"
	"ips/internal/obs"
)

// Table5Row holds one dataset's per-step runtime breakdown.
type Table5Row struct {
	Dataset         string
	CandidateGen    time.Duration
	PruneNaive      time.Duration // "pruning without DABF"
	PruneDABF       time.Duration // "pruning with DABF"
	SelectRaw       time.Duration // "without DT+CR"
	SelectOptimised time.Duration // "with DT+CR"
}

// Table5Datasets are the four datasets of Table V.
var Table5Datasets = []string{"ArrowHead", "Computers", "ShapeletSim", "UWaveGestureLibraryY"}

// Table5 reproduces Table V: the runtime of the three IPS steps, with the
// pruning step measured both with the DABF and with the naive quadratic
// method, and top-k selection measured with and without the DT & CR
// optimisations.  Expectation (paper): DABF and DT+CR each save >= 50%.
func (h *Harness) Table5(ctx context.Context, datasets []string) ([]Table5Row, error) {
	ctx = benchCtx(ctx)
	if datasets == nil {
		datasets = Table5Datasets
	}
	cfg := h.ipsOptions()
	// Per-step cost is the quantity under test: enlarge the candidate pool
	// so the pruning and selection stages dominate constant factors (see
	// Fig10a for the same reasoning).
	cfg.IP.QN = 40
	if h.Quick {
		cfg.IP.QN = 20
	}
	var rows []Table5Row
	for _, name := range datasets {
		if err := ctxErr(ctx, "bench.table5"); err != nil {
			return nil, err
		}
		train, _, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		row := Table5Row{Dataset: name}
		dsp := h.Obs.Root().Child("table5." + name)

		sw := obs.NewStopwatch()
		gsp := dsp.Child("candidate-gen")
		pool, err := ip.GenerateSpan(ctx, train, cfg.IP, gsp)
		gsp.End()
		if err != nil {
			dsp.End()
			return nil, err
		}
		row.CandidateGen = sw.Elapsed()

		sw = obs.NewStopwatch()
		psp := dsp.Child("prune-dabf")
		bsp := psp.Child("dabf-build")
		d, err := dabf.BuildSpan(ctx, pool, cfg.DABF, bsp)
		bsp.End()
		if err != nil {
			psp.End()
			dsp.End()
			return nil, err
		}
		qsp := psp.Child("dabf-query")
		pruned, _, err := dabf.PruneSpan(ctx, pool, d, qsp)
		qsp.End()
		psp.End()
		if err != nil {
			dsp.End()
			return nil, err
		}
		row.PruneDABF = sw.Elapsed()

		sw = obs.NewStopwatch()
		nsp := dsp.Child("prune-naive")
		if _, _, err := dabf.NaivePrune(ctx, pool, cfg.DABF, nsp); err != nil {
			nsp.End()
			dsp.End()
			return nil, err
		}
		nsp.End()
		row.PruneNaive = sw.Elapsed()

		sw = obs.NewStopwatch()
		ssp := dsp.Child("select-dtcr")
		if _, err := core.SelectTopK(ctx, pruned, train, d, core.SelectionConfig{K: cfg.K, UseDT: true, UseCR: true, Span: ssp}); err != nil {
			ssp.End()
			dsp.End()
			return nil, err
		}
		ssp.End()
		row.SelectOptimised = sw.Elapsed()

		sw = obs.NewStopwatch()
		rsp := dsp.Child("select-raw")
		if _, err := core.SelectTopK(ctx, pruned, train, d, core.SelectionConfig{K: cfg.K, UseDT: false, UseCR: false, Span: rsp}); err != nil {
			rsp.End()
			dsp.End()
			return nil, err
		}
		rsp.End()
		row.SelectRaw = sw.Elapsed()
		dsp.End()

		rows = append(rows, row)
	}

	header := []string{"dataset", "cand. gen(s)", "prune naive(s)", "prune DABF(s)",
		"select raw(s)", "select DT+CR(s)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, secs(r.CandidateGen), secs(r.PruneNaive), secs(r.PruneDABF),
			secs(r.SelectRaw), secs(r.SelectOptimised),
		})
	}
	fmt.Fprintln(h.out(), "Table V — per-step efficiency: pruning with/without DABF, selection with/without DT+CR")
	table(h.out(), header, cells)
	return rows, nil
}
