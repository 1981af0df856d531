package bench

import (
	"context"
	"fmt"

	"ips/internal/baselines"
	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/nn"
	"ips/internal/ts"
)

// COTERow compares the full measured ensemble against its strongest member
// on one dataset.
type COTERow struct {
	Dataset    string
	Ensemble   float64
	BestMember float64
	BestName   string
	Members    map[string]float64
}

// COTE measures a full collective-of-classifiers ensemble in the spirit of
// COTE-IPS: every classifier this repository implements (IPS, BASE,
// BSPCOVER, ST, LTS, FS, shapelet tree, Rotation Forest, FCN, 1NN-ED,
// 1NN-DTW) votes with a weight equal to its training accuracy.  The paper's
// Table VI shows the ensemble ranked 1st; the expectation here is that the
// ensemble matches or beats its best single member on most datasets.
func (h *Harness) COTE(ctx context.Context, datasets []string) ([]COTERow, error) {
	ctx = benchCtx(ctx)
	if datasets == nil {
		datasets = []string{"ItalyPowerDemand", "GunPoint", "Coffee", "TwoLeadECG"}
	}
	var rows []COTERow
	for _, name := range datasets {
		if err := ctxErr(ctx, "bench.cote"); err != nil {
			return nil, err
		}
		train, test, err := h.Load(name)
		if err != nil {
			return nil, err
		}
		row := COTERow{Dataset: name, Members: map[string]float64{}}
		builder := baselines.NewEnsembleBuilder(train)
		addMember := func(mname string, predict func(*ts.Dataset) []int) {
			builder.AddWeighted(mname, predict)
			row.Members[mname] = classify.Accuracy(predict(test), test.Labels())
		}

		// IPS.
		ipsModel, err := core.Fit(ctx, train, h.ipsOptions())
		if err != nil {
			return nil, err
		}
		addMember("IPS", onCtx(ctx, ipsModel.Predict))

		// Shapelet-transform methods sharing the common classifier.
		if sh, err := baselines.BaseDiscoverCtx(ctx, train, baselines.BaseConfig{K: h.k(), Workers: h.Workers}); err == nil {
			if m, err := baselines.TrainShapeletClassifierCtx(ctx, train, sh, classify.SVMConfig{Seed: h.Seed}); err == nil {
				addMember("BASE", onCtx(ctx, m.PredictCtx))
			}
		}
		if sh, err := baselines.BSPCoverDiscoverCtx(ctx, train, baselines.BSPConfig{K: h.k()}); err == nil {
			if m, err := baselines.TrainShapeletClassifierCtx(ctx, train, sh, classify.SVMConfig{Seed: h.Seed}); err == nil {
				addMember("BSPCOVER", onCtx(ctx, m.PredictCtx))
			}
		}
		if sh, err := baselines.STDiscoverCtx(ctx, train, baselines.STConfig{Seed: h.Seed}); err == nil {
			if m, err := baselines.TrainShapeletClassifierCtx(ctx, train, sh, classify.SVMConfig{Seed: h.Seed}); err == nil {
				addMember("ST", onCtx(ctx, m.PredictCtx))
			}
		}
		if sh, err := baselines.FastShapeletsDiscoverCtx(ctx, train, baselines.FSConfig{Seed: h.Seed}); err == nil {
			if m, err := baselines.TrainShapeletClassifierCtx(ctx, train, sh, classify.SVMConfig{Seed: h.Seed}); err == nil {
				addMember("FS", onCtx(ctx, m.PredictCtx))
			}
		}

		// Other families.
		if lts, err := baselines.LTSTrain(train, baselines.LTSConfig{Iterations: 120, Seed: h.Seed}); err == nil {
			addMember("LTS", lts.Predict)
		}
		if sdt, err := baselines.SDTreeTrainCtx(ctx, train, baselines.SDTreeConfig{Seed: h.Seed}); err == nil {
			addMember("SDTree", sdt.PredictAll)
		}
		if rotf, err := baselines.RotFTrain(train, baselines.RotFConfig{Seed: h.Seed}); err == nil {
			addMember("RotF", rotf.Predict)
		}
		if fcn, err := nn.TrainFCN(train, nn.FCNConfig{Epochs: 60, Seed: h.Seed}); err == nil {
			addMember("FCN", fcn.PredictAll)
		}
		nnED := classify.NewNN(train.Instances, classify.NNConfig{Metric: classify.Euclidean})
		addMember("1NN-ED", func(d *ts.Dataset) []int { return nnED.PredictAll(d.Instances) })
		nnDTW := classify.NewNN(train.Instances, classify.NNConfig{Metric: classify.DTWWindowed})
		addMember("1NN-DTW", func(d *ts.Dataset) []int { return nnDTW.PredictAll(d.Instances) })

		ensemble, err := builder.Build()
		if err != nil {
			return nil, err
		}
		row.Ensemble = ensemble.Accuracy(test)
		for mname, acc := range row.Members {
			if acc > row.BestMember {
				row.BestMember = acc
				row.BestName = mname
			}
		}
		rows = append(rows, row)
	}

	header := []string{"dataset", "ensemble", "best member", "best member acc", "IPS"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, f1(r.Ensemble), r.BestName, f1(r.BestMember), f1(r.Members["IPS"]),
		})
	}
	fmt.Fprintln(h.out(), "COTE-style full ensemble (training-accuracy-weighted vote of 11 measured classifiers)")
	table(h.out(), header, cells)
	return rows, nil
}

// onCtx adapts a ctx-first predictor to the ensemble's vote signature, so
// members predict on the harness ctx.  A failed prediction returns nil,
// which casts no votes and scores zero accuracy.
func onCtx(ctx context.Context, predict func(context.Context, *ts.Dataset) ([]int, error)) func(*ts.Dataset) []int {
	return func(d *ts.Dataset) []int {
		pred, err := predict(ctx, d)
		if err != nil {
			return nil
		}
		return pred
	}
}
