package bench

import (
	"context"
	"fmt"
	"time"

	"ips/internal/core"
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
// triangle (naive slower), 2–10× in the paper.  Each dataset runs
// core.Discover with and without the DABF and reads both runs'
// Timings.Pruning.
func (h *Harness) Fig10a(ctx context.Context, datasets []string) ([]Fig10aRow, error) {
	ctx = benchCtx(ctx)
	if datasets == nil {
		datasets = Fig10Datasets
		if h.Quick {
			datasets = datasets[:6]
		}
	}
	base := h.stepOptions()
	naive := base
	naive.DisableDABF = true
	var rows []Fig10aRow
	for _, name := range datasets {
		if err := ctxErr(ctx, "bench.fig10a"); err != nil {
			return nil, err
		}
		train, _, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		tm, err := discoverTimings(ctx, train, base, naive)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10aRow{Dataset: name, WithDABF: tm[0].Pruning, WithoutDAB: tm[1].Pruning})
	}

	header := []string{"dataset", "with DABF(ms)", "without DABF(ms)", "speedup"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, ms(r.WithDABF), ms(r.WithoutDAB),
			f2(r.WithoutDAB.Seconds() / r.WithDABF.Seconds()),
		})
	}
	fmt.Fprintln(h.out(), "Fig. 10(a) — pruning time with vs without DABF")
	table(h.out(), header, cells)
	return rows, nil
}

// Fig10bc reproduces Fig. 10(b,c): top-k selection time and final accuracy
// with and without the DT & CR optimisations.  Expectation: 50–90% of the
// selection time saved with near-identical accuracy.  Each configuration is
// one core.Evaluate, and its selection time is that fit's Timings.Selection.
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
		opt := h.ipsOptions()
		accDTCR, dtcr, err := core.Evaluate(ctx, train, test, opt)
		if err != nil {
			return nil, err
		}
		opt.DisableDT, opt.DisableCR = true, true
		accRaw, raw, err := core.Evaluate(ctx, train, test, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10bcRow{
			Dataset:  name,
			TimeDTCR: dtcr.Discovery.Timings.Selection,
			TimeRaw:  raw.Discovery.Timings.Selection,
			AccDTCR:  accDTCR,
			AccRaw:   accRaw,
		})
	}

	header := []string{"dataset", "select DT+CR(ms)", "select raw(ms)", "time saved", "acc DT+CR", "acc raw"}
	var cells [][]string
	for _, r := range rows {
		saved := 1 - r.TimeDTCR.Seconds()/r.TimeRaw.Seconds()
		cells = append(cells, []string{
			r.Dataset, ms(r.TimeDTCR), ms(r.TimeRaw),
			fmt.Sprintf("%.0f%%", 100*saved), f1(r.AccDTCR), f1(r.AccRaw),
		})
	}
	fmt.Fprintln(h.out(), "Fig. 10(b,c) — selection time and accuracy with vs without DT & CR")
	table(h.out(), header, cells)
	return rows, nil
}
