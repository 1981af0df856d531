package bench

import (
	"context"
	"fmt"
	"time"

	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
)

// Fig10aRow holds one dataset's pruning-time comparison (Fig. 10a).
type Fig10aRow struct {
	Dataset    string
	WithDABF   time.Duration
	WithoutDAB time.Duration
}

// Fig10bcRow holds one dataset's selection-time and accuracy comparison
// (Fig. 10b and 10c).
type Fig10bcRow struct {
	Dataset  string
	TimeDTCR time.Duration
	TimeRaw  time.Duration
	AccDTCR  float64
	AccRaw   float64
}

// Fig10Datasets is the dataset sweep used for both panels; the paper plots
// all UCR datasets, we default to a representative spread.
var Fig10Datasets = []string{
	"ItalyPowerDemand", "SonyAIBORobotSurface1", "TwoLeadECG", "ECG200",
	"GunPoint", "ArrowHead", "Coffee", "BeetleFly", "ShapeletSim", "ToeSegmentation1",
}

// Fig10a reproduces Fig. 10(a): candidate pruning time with and without the
// DABF across datasets.  Expectation: every dataset lands in the upper
// triangle (naive slower), 2–10× in the paper.
func (h *Harness) Fig10a(ctx context.Context, datasets []string) ([]Fig10aRow, error) {
	ctx = benchCtx(ctx)
	if datasets == nil {
		datasets = Fig10Datasets
		if h.Quick {
			datasets = datasets[:6]
		}
	}
	cfg := h.ipsOptions()
	// Pruning cost is the quantity under test: use a large candidate pool so
	// the asymptotic gap (DABF O(|Φ|) vs naive O(|Φ|²)) is visible above
	// constant factors, as it is at the paper's full scale.
	cfg.IP.QN = 40
	if h.Quick {
		cfg.IP.QN = 20
	}
	var rows []Fig10aRow
	for _, name := range datasets {
		if err := ctxErr(ctx, "bench.fig10a"); err != nil {
			return nil, err
		}
		train, _, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		dsp := h.Obs.Root().Child("fig10a." + name)
		gsp := dsp.Child("candidate-gen")
		pool, err := ip.GenerateSpan(ctx, train, cfg.IP, gsp)
		gsp.End()
		if err != nil {
			dsp.End()
			return nil, err
		}
		sw := obs.NewStopwatch()
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
		if _, _, err := dabf.PruneSpan(ctx, pool, d, qsp); err != nil {
			qsp.End()
			psp.End()
			dsp.End()
			return nil, err
		}
		qsp.End()
		psp.End()
		withDABF := sw.Elapsed()

		sw = obs.NewStopwatch()
		nsp := dsp.Child("prune-naive")
		if _, _, err := dabf.NaivePrune(ctx, pool, cfg.DABF, nsp); err != nil {
			nsp.End()
			dsp.End()
			return nil, err
		}
		nsp.End()
		without := sw.Elapsed()
		dsp.End()

		rows = append(rows, Fig10aRow{Dataset: name, WithDABF: withDABF, WithoutDAB: without})
	}

	header := []string{"dataset", "with DABF(s)", "without DABF(s)", "speedup"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, secs(r.WithDABF), secs(r.WithoutDAB),
			f2(r.WithoutDAB.Seconds() / r.WithDABF.Seconds()),
		})
	}
	fmt.Fprintln(h.out(), "Fig. 10(a) — pruning time with vs without DABF")
	table(h.out(), header, cells)
	return rows, nil
}

// Fig10bc reproduces Fig. 10(b,c): top-k selection time and final accuracy
// with and without the DT & CR optimisations.  Expectation: 50–90% of the
// selection time saved with near-identical accuracy.
func (h *Harness) Fig10bc(ctx context.Context, datasets []string) ([]Fig10bcRow, error) {
	ctx = benchCtx(ctx)
	if datasets == nil {
		datasets = Fig10Datasets
		if h.Quick {
			datasets = datasets[:6]
		}
	}
	var rows []Fig10bcRow
	for _, name := range datasets {
		if err := ctxErr(ctx, "bench.fig10bc"); err != nil {
			return nil, err
		}
		train, test, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		row := Fig10bcRow{Dataset: name}

		opt := h.ipsOptions()
		acc, _, err := core.Evaluate(ctx, train, test, opt)
		if err != nil {
			return nil, err
		}
		row.AccDTCR = acc
		row.TimeDTCR = h.selectionTime(ctx, train, opt)

		opt.DisableDT = true
		opt.DisableCR = true
		acc, _, err = core.Evaluate(ctx, train, test, opt)
		if err != nil {
			return nil, err
		}
		row.AccRaw = acc
		row.TimeRaw = h.selectionTime(ctx, train, opt)

		rows = append(rows, row)
	}

	header := []string{"dataset", "select DT+CR(s)", "select raw(s)", "time saved", "acc DT+CR", "acc raw"}
	var cells [][]string
	for _, r := range rows {
		saved := 1 - r.TimeDTCR.Seconds()/r.TimeRaw.Seconds()
		cells = append(cells, []string{
			r.Dataset, secs(r.TimeDTCR), secs(r.TimeRaw),
			fmt.Sprintf("%.0f%%", 100*saved), f1(r.AccDTCR), f1(r.AccRaw),
		})
	}
	fmt.Fprintln(h.out(), "Fig. 10(b,c) — selection time and accuracy with vs without DT & CR")
	table(h.out(), header, cells)
	return rows, nil
}

// selectionTime isolates the Alg. 4 stage runtime under the given options
// (0 when any stage fails or the context is cancelled — the caller's own
// Evaluate already surfaced the error).
func (h *Harness) selectionTime(ctx context.Context, train *ts.Dataset, opt core.Options) time.Duration {
	pool, err := ip.GenerateSpan(ctx, train, opt.IP, nil)
	if err != nil {
		return 0
	}
	d, err := dabf.BuildSpan(ctx, pool, opt.DABF, nil)
	if err != nil {
		return 0
	}
	pruned, _, err := dabf.PruneSpan(ctx, pool, d, nil)
	if err != nil {
		return 0
	}
	sp := h.Obs.Root().Child("fig10bc.selection." + train.Name)
	sp.SetString("dt_cr", fmt.Sprint(!opt.DisableDT))
	sw := obs.NewStopwatch()
	if _, err := core.SelectTopK(ctx, pruned, train, d, core.SelectionConfig{
		K:     opt.K,
		UseDT: !opt.DisableDT,
		UseCR: !opt.DisableCR,
		Span:  sp,
	}); err != nil {
		sp.End()
		return 0
	}
	sp.End()
	return sw.Elapsed()
}
