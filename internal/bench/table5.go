package bench

import (
	"context"
	"fmt"
	"time"

	"ips/internal/core"
	"ips/internal/ts"
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
// Each dataset runs core.Discover three times (the defaults, DisableDABF,
// and DisableDT with DisableCR); each column is one stage's Timings from
// one of those runs.
func (h *Harness) Table5(ctx context.Context, datasets []string) ([]Table5Row, error) {
	ctx = benchCtx(ctx)
	if datasets == nil {
		datasets = Table5Datasets
	}
	base := h.stepOptions()
	naive, raw := base, base
	naive.DisableDABF = true
	raw.DisableDT, raw.DisableCR = true, true
	var rows []Table5Row
	for _, name := range datasets {
		if err := ctxErr(ctx, "bench.table5"); err != nil {
			return nil, err
		}
		train, _, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		tm, err := discoverTimings(ctx, train, base, naive, raw)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Dataset:         name,
			CandidateGen:    tm[0].CandidateGen,
			PruneNaive:      tm[1].Pruning,
			PruneDABF:       tm[0].Pruning,
			SelectRaw:       tm[2].Selection,
			SelectOptimised: tm[0].Selection,
		})
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

// stepOptions is ipsOptions with a larger candidate pool.  Per-step cost is
// the quantity under test in Table V and Fig. 10(a), so the pool must be
// large enough for the asymptotic gap (DABF O(|Φ|) vs naive O(|Φ|²)) to show
// above constant factors, as it does at the paper's full scale.
func (h *Harness) stepOptions() core.Options {
	opt := h.ipsOptions()
	opt.IP.QN = 40
	if h.Quick {
		opt.IP.QN = 20
	}
	return opt
}

// discoverTimings runs core.Discover on train once per option set, in
// order, and returns each run's per-stage timings.
func discoverTimings(ctx context.Context, train *ts.Dataset, opts ...core.Options) ([]core.Timings, error) {
	tm := make([]core.Timings, len(opts))
	for i, opt := range opts {
		res, err := core.Discover(ctx, train, opt)
		if err != nil {
			return nil, err
		}
		tm[i] = res.Timings
	}
	return tm, nil
}
