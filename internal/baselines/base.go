// Package baselines implements the comparison methods of the IPS paper's
// evaluation: BASE, the matrix-profile baseline of Yeh et al. [37]
// (§II-B, Formula 4), and a faithful-in-spirit re-implementation of
// BSPCOVER, the SAX + Bloom-filter + p-cover shapelet method of Li et
// al. [23] the paper reports as the efficiency state of the art.  A small
// COTE-IPS ensemble stand-in rounds out the Table VI columns we measure.
package baselines

import (
	"context"
	"errors"
	"sort"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/errs"
	"ips/internal/mp"
	"ips/internal/ts"
)

// BaseConfig parameterises the MP baseline.
type BaseConfig struct {
	// K is the number of shapelets per class.
	K int
	// LengthRatios are candidate lengths as fractions of the instance
	// length (kept identical to IPS for fairness, §IV-A).
	LengthRatios []float64
	MinLength    int
	// Workers parallelises the STOMP self- and AB-joins over diagonal
	// tiles (<=1 means sequential).  The discovered shapelets are
	// identical for any worker count; see mp.SelfJoinCtx.
	Workers int
}

func (c BaseConfig) defaults() BaseConfig {
	if c.K <= 0 {
		c.K = 5
	}
	if len(c.LengthRatios) == 0 {
		c.LengthRatios = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.MinLength <= 0 {
		c.MinLength = 4
	}
	return c
}

// BaseDiscoverCtx implements the MP baseline (Formula 4): per class C it
// concatenates all of C's training instances into T_C and all remaining
// instances into T_rest, computes the self-join profile P_CC and the AB-join
// profile P_C,rest, and selects the subsequences of T_C with the top-k
// largest |P_C,rest − P_CC| as C's "shapelets".  Cancellation is checked
// per STOMP join (the unit of heavy work) and inside the joins' tile
// workers; a cancelled run returns an error matching errs.ErrCanceled.
func BaseDiscoverCtx(ctx context.Context, train *ts.Dataset, cfg BaseConfig) ([]classify.Shapelet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.defaults()
	if train == nil {
		return nil, errs.BadInput(errs.StageValidate, "base.discover", "", "nil dataset")
	}
	if err := train.Validate(true); err != nil {
		return nil, errs.BadInputErr(errs.StageValidate, "base.discover", train.Name, err)
	}
	byClass := train.ByClass()
	classes := train.Classes()
	n := train.SeriesLen()

	type scored struct {
		diff   float64
		values ts.Series
	}
	var out []classify.Shapelet
	for _, class := range classes {
		own := byClass[class]
		var rest []ts.Instance
		for _, oc := range classes {
			if oc != class {
				rest = append(rest, byClass[oc]...)
			}
		}
		catOwn, startsOwn := ts.ConcatenateInstances(own)
		catRest, startsRest := ts.ConcatenateInstances(rest)

		var best []scored
		for _, ratio := range cfg.LengthRatios {
			L := int(ratio * float64(n))
			if L < cfg.MinLength {
				L = cfg.MinLength
			}
			if L > n {
				L = n
			}
			validOwn := ts.BoundaryMask(startsOwn, len(catOwn), L)
			validRest := ts.BoundaryMask(startsRest, len(catRest), L)
			kern := mp.Options{Workers: cfg.Workers}
			pSelf, err := mp.SelfJoinCtx(ctx, catOwn, L, validOwn, kern)
			if err != nil {
				return nil, err
			}
			pCross, err := mp.ABJoinCtx(ctx, catOwn, catRest, L, validOwn, validRest, kern)
			if err != nil {
				return nil, err
			}
			diff := mp.Diff(pCross, pSelf)
			dp := &mp.Profile{P: diff, W: L}
			// Top-k per length with an exclusion zone; merged across
			// lengths below.
			for _, idx := range dp.TopK(cfg.K, true, L/2) {
				best = append(best, scored{
					diff:   diff[idx],
					values: catOwn[idx : idx+L].Clone(),
				})
			}
		}
		if len(best) == 0 {
			return nil, errors.New("baselines: BASE found no candidates")
		}
		sort.Slice(best, func(i, j int) bool { return best[i].diff > best[j].diff })
		limit := cfg.K
		if limit > len(best) {
			limit = len(best)
		}
		for _, s := range best[:limit] {
			out = append(out, classify.Shapelet{Class: class, Values: s.values, Score: s.diff})
		}
	}
	return out, nil
}

// BaseEvaluateCtx runs the full BASE pipeline and returns its test
// accuracy, with cooperative cancellation; see BaseDiscoverCtx for the
// granularity.
func BaseEvaluateCtx(ctx context.Context, train, test *ts.Dataset, cfg BaseConfig, svmCfg classify.SVMConfig) (float64, error) {
	return evaluate(ctx, train, test, core.Options{SVM: svmCfg, Workers: cfg.Workers},
		func() ([]classify.Shapelet, error) { return BaseDiscoverCtx(ctx, train, cfg) })
}

// evaluate is every shapelet baseline's discover → train → score body: it
// runs discover, trains IPS's own classifier (core.Train) on the shapelets,
// and returns the test accuracy (%), so accuracy comparisons isolate the
// discovery step.  Cancellation reaches the transform's distance engine and
// the SVM's coordinate-descent passes.
func evaluate(ctx context.Context, train, test *ts.Dataset, opt core.Options, discover func() ([]classify.Shapelet, error)) (float64, error) {
	sh, err := discover()
	if err != nil {
		return 0, err
	}
	m, err := core.Train(ctx, train, sh, opt)
	if err != nil {
		return 0, err
	}
	pred, err := m.Predict(ctx, test)
	if err != nil {
		return 0, err
	}
	return classify.Accuracy(pred, test.Labels()), nil
}
