package bench

import (
	"context"
	"fmt"
	"time"

	"ips/internal/baselines"
	"ips/internal/classify"
	"ips/internal/obs"
	"ips/internal/ts"
)

// Fig13Result holds the interpretability case study of Fig. 13.
type Fig13Result struct {
	Dataset     string
	IPSShapelet classify.Shapelet
	BSPShapelet classify.Shapelet
	ClassMeans  map[int]ts.Series
	IPSRuntime  time.Duration
	BSPRuntime  time.Duration
	SpeedupIPS  float64
}

// Fig13 reproduces the Fig. 13 case study on ItalyPowerDemand: the best IPS
// shapelet and the best BSPCOVER shapelet are rendered as ASCII sparklines
// against the per-class mean series, illustrating that both highlight the
// morning-demand difference while IPS discovers its shapelet several times
// faster (4× in the paper).
func (h *Harness) Fig13(ctx context.Context) (*Fig13Result, error) {
	ctx = benchCtx(ctx)
	const name = "ItalyPowerDemand"
	train, test, err := h.Load(name)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Dataset: name, ClassMeans: map[int]ts.Series{}}

	ipsRes, model, err := h.RunIPS(ctx, train, test)
	if err != nil {
		return nil, err
	}
	res.IPSRuntime = ipsRes.Runtime
	best := model.Shapelets[0]
	for _, s := range model.Shapelets {
		if s.Score > best.Score {
			best = s
		}
	}
	res.IPSShapelet = best

	sw := obs.NewStopwatch()
	bspShapelets, err := baselines.BSPCoverDiscoverCtx(ctx, train, baselines.BSPConfig{K: h.k()})
	if err != nil {
		return nil, err
	}
	res.BSPRuntime = sw.Elapsed()
	bspBest := bspShapelets[0]
	for _, s := range bspShapelets {
		if s.Score > bspBest.Score {
			bspBest = s
		}
	}
	res.BSPShapelet = bspBest
	res.SpeedupIPS = res.BSPRuntime.Seconds() / res.IPSRuntime.Seconds()

	// Per-class mean series for the overlay.
	for class, ins := range train.ByClass() {
		mean := make(ts.Series, len(ins[0].Values))
		for _, in := range ins {
			for i, v := range in.Values {
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= float64(len(ins))
		}
		res.ClassMeans[class] = mean
	}

	w := h.out()
	fmt.Fprintf(w, "Fig. 13 — interpretability case study on %s\n", name)
	for class := 0; class < 2; class++ {
		fmt.Fprintf(w, "class %d mean:      %s\n", class, ts.Spark(res.ClassMeans[class]))
	}
	fmt.Fprintf(w, "IPS shapelet (class %d, len %d):      %s\n",
		res.IPSShapelet.Class, len(res.IPSShapelet.Values), ts.Spark(res.IPSShapelet.Values))
	fmt.Fprintf(w, "BSPCOVER shapelet (class %d, len %d): %s\n",
		res.BSPShapelet.Class, len(res.BSPShapelet.Values), ts.Spark(res.BSPShapelet.Values))
	fmt.Fprintf(w, "discovery time: IPS %.3fs vs BSPCOVER %.3fs (%.1fx faster; paper: 4x)\n",
		res.IPSRuntime.Seconds(), res.BSPRuntime.Seconds(), res.SpeedupIPS)
	return res, nil
}
