package bench

import (
	"context"
	"fmt"
	"time"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/dabf"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
)

// AblationRow reports one configuration of the design-choice ablation.
type AblationRow struct {
	Variant  string
	Accuracy float64
	Runtime  time.Duration
}

// AblationResult holds the ablation grid for one dataset.
type AblationResult struct {
	Dataset string
	Rows    []AblationRow
}

// Ablation measures the contribution of each IPS design choice on a dataset
// sweep: the full pipeline, then one variant per removed ingredient —
// no DT, no CR, naive pruning instead of the DABF, and no discord
// candidates in the inter-class utility (Def. 12 uses motifs AND discords
// of other classes; this variant drops the discords).
func (h *Harness) Ablation(ctx context.Context, datasets []string) ([]AblationResult, error) {
	ctx = benchCtx(ctx)
	if datasets == nil {
		datasets = []string{"ItalyPowerDemand", "GunPoint", "ArrowHead"}
	}
	var out []AblationResult
	for _, name := range datasets {
		if err := ctxErr(ctx, "bench.ablation"); err != nil {
			return nil, err
		}
		train, test, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		res := AblationResult{Dataset: name}

		run := func(variant string, opt core.Options, mutatePool bool) error {
			sw := obs.NewStopwatch()
			var acc float64
			if mutatePool {
				acc, err = h.evaluateWithoutDiscords(ctx, train, test, opt)
			} else {
				acc, _, err = core.Evaluate(ctx, train, test, opt)
			}
			if err != nil {
				return err
			}
			res.Rows = append(res.Rows, AblationRow{Variant: variant, Accuracy: acc, Runtime: sw.Elapsed()})
			return nil
		}

		base := h.ipsOptions()
		if err := run("full", base, false); err != nil {
			return nil, err
		}
		v := base
		v.DisableDT = true
		if err := run("no DT", v, false); err != nil {
			return nil, err
		}
		v = base
		v.DisableCR = true
		if err := run("no CR", v, false); err != nil {
			return nil, err
		}
		v = base
		v.DisableDABF = true
		if err := run("naive pruning", v, false); err != nil {
			return nil, err
		}
		if err := run("no discords", base, true); err != nil {
			return nil, err
		}
		out = append(out, res)

		header := []string{"variant", "accuracy", "runtime(s)"}
		var cells [][]string
		for _, r := range res.Rows {
			cells = append(cells, []string{r.Variant, f1(r.Accuracy), secs(r.Runtime)})
		}
		fmt.Fprintf(h.out(), "Design-choice ablation on %s\n", name)
		table(h.out(), header, cells)
	}
	return out, nil
}

// evaluateWithoutDiscords runs the pipeline with discord candidates stripped
// from the pool before pruning/selection, isolating their contribution to
// the inter-class utility.
func (h *Harness) evaluateWithoutDiscords(ctx context.Context, train, test *ts.Dataset, opt core.Options) (float64, error) {
	opt = opt.WithDefaults()
	sp := h.Obs.Root().Child("ablation.no-discords." + train.Name)
	defer sp.End()
	gsp := sp.Child("candidate-gen")
	pool, err := ip.GenerateSpan(ctx, train, opt.IP, gsp)
	gsp.End()
	if err != nil {
		return 0, err
	}
	for class, cands := range pool.ByClass {
		var motifsOnly []ip.Candidate
		for _, c := range cands {
			if c.Kind == ip.Motif {
				motifsOnly = append(motifsOnly, c)
			}
		}
		pool.ByClass[class] = motifsOnly
	}
	bsp := sp.Child("dabf-build")
	d, err := dabf.BuildSpan(ctx, pool, opt.DABF, bsp)
	bsp.End()
	if err != nil {
		return 0, err
	}
	qsp := sp.Child("dabf-query")
	pruned, _, err := dabf.PruneSpan(ctx, pool, d, qsp)
	qsp.End()
	if err != nil {
		return 0, err
	}
	ssp := sp.Child("selection")
	shapelets, err := core.SelectTopK(ctx, pruned, train, d, core.SelectionConfig{K: opt.K, UseDT: true, UseCR: true, Span: ssp})
	ssp.End()
	if err != nil {
		return 0, err
	}
	// Obs stays nil: the ablation span records the discovery stages only.
	opt.Obs = nil
	m, err := core.Train(ctx, train, shapelets, opt)
	if err != nil {
		return 0, err
	}
	pred, err := m.Predict(ctx, test)
	if err != nil {
		return 0, err
	}
	return classify.Accuracy(pred, test.Labels()), nil
}
