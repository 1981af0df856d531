package baselines

import (
	"context"
	"errors"
	"math/rand"
	"sort"

	"ips/internal/classify"
	"ips/internal/core"
	"ips/internal/ts"
)

var errSTNoCandidates = errors.New("baselines: ST found no candidates")

// STConfig parameterises the shapelet-transform baseline (Lines et al.,
// KDD'12): candidates are enumerated from the training set, scored by a
// statistical quality measure over their distance distribution (we use the
// one-way ANOVA F-statistic, the measure the ST authors adopted in later
// revisions), and the top-k per class define the transform.
type STConfig struct {
	// K is the number of shapelets kept per class (default 5).
	K int
	// LengthRatios are candidate lengths as fractions of the series length.
	LengthRatios []float64
	MinLength    int
	// MaxCandidates bounds the number of scored candidates; the candidate
	// space is subsampled uniformly beyond it (default 500).
	MaxCandidates int
	Seed          int64
}

func (c STConfig) defaults() STConfig {
	if c.K <= 0 {
		c.K = 5
	}
	if len(c.LengthRatios) == 0 {
		c.LengthRatios = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.MinLength <= 0 {
		c.MinLength = 4
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 500
	}
	return c
}

// FStatQuality returns the one-way ANOVA F-statistic of the distances
// grouped by class: between-class variance over within-class variance.
// Larger means the candidate separates classes better.
func FStatQuality(dists []float64, labels []int) float64 {
	groups := map[int][]float64{}
	for i, d := range dists {
		groups[labels[i]] = append(groups[labels[i]], d)
	}
	k := len(groups)
	n := len(dists)
	if k < 2 || n <= k {
		return 0
	}
	var grand float64
	for _, d := range dists {
		grand += d
	}
	grand /= float64(n)
	// Sum the per-class terms in class order: float addition is not
	// associative, so map order would change the result's low bits.
	classes := make([]int, 0, k)
	for c := range groups {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	var ssBetween, ssWithin float64
	for _, c := range classes {
		g := groups[c]
		var mean float64
		for _, d := range g {
			mean += d
		}
		mean /= float64(len(g))
		diff := mean - grand
		ssBetween += float64(len(g)) * diff * diff
		for _, d := range g {
			dd := d - mean
			ssWithin += dd * dd
		}
	}
	msBetween := ssBetween / float64(k-1)
	msWithin := ssWithin / float64(n-k)
	if msWithin == 0 {
		if msBetween == 0 {
			return 0
		}
		return 1e12 // perfectly separated
	}
	return msBetween / msWithin
}

// STDiscoverCtx enumerates (subsampled) candidates, scores each by the
// F-statistic of its distance distribution, and returns the top-k per class
// (a candidate is attributed to the class whose mean distance to it is
// smallest).  The scoring stage checks ctx per instance pass inside the
// batched distance engine.
func STDiscoverCtx(ctx context.Context, train *ts.Dataset, cfg STConfig) ([]classify.Shapelet, error) {
	cfg = cfg.defaults()
	if err := train.Validate(true); err != nil {
		return nil, err
	}
	n := train.SeriesLen()
	labels := train.Labels()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Enumerate the candidate space (instance, length, offset) and
	// subsample it uniformly to MaxCandidates.
	type candRef struct {
		inst, at, length int
	}
	var space []candRef
	for idx, in := range train.Instances {
		for _, ratio := range cfg.LengthRatios {
			L := int(ratio * float64(n))
			if L < cfg.MinLength {
				L = cfg.MinLength
			}
			if L > len(in.Values) {
				L = len(in.Values)
			}
			stride := L / 2
			if stride < 1 {
				stride = 1
			}
			for at := 0; at+L <= len(in.Values); at += stride {
				space = append(space, candRef{inst: idx, at: at, length: L})
			}
		}
	}
	if len(space) > cfg.MaxCandidates {
		perm := rng.Perm(len(space))[:cfg.MaxCandidates]
		sub := make([]candRef, len(perm))
		for i, p := range perm {
			sub[i] = space[p]
		}
		space = sub
	}

	classes := train.Classes()
	type scored struct {
		s classify.Shapelet
		f float64
	}
	// Score candidates against the batched distance matrix: one engine pass
	// per instance shares sliding statistics across all candidates, instead
	// of a fresh ts.Dist scan per (candidate, instance) pair.
	queries := make([][]float64, len(space))
	for ci, ref := range space {
		queries[ci] = train.Instances[ref.inst].Values[ref.at : ref.at+ref.length]
	}
	D, err := distMatrix(ctx, prepareAll(train), nil, queries)
	if err != nil {
		return nil, err
	}
	best := map[int][]scored{}
	for ci := range space {
		values := ts.Series(queries[ci])
		dists := D[ci]
		f := FStatQuality(dists, labels)
		if f <= 0 {
			continue
		}
		// Attribute to the class with the smallest mean distance.
		bestClass, bestMean := classes[0], 0.0
		first := true
		for _, class := range classes {
			var sum float64
			var cnt int
			for i, d := range dists {
				if labels[i] == class {
					sum += d
					cnt++
				}
			}
			mean := sum / float64(cnt)
			if first || mean < bestMean {
				bestClass, bestMean = class, mean
				first = false
			}
		}
		best[bestClass] = append(best[bestClass], scored{
			s: classify.Shapelet{Class: bestClass, Values: append(ts.Series(nil), values...), Score: f},
			f: f,
		})
	}
	var out []classify.Shapelet
	for _, class := range classes {
		cands := best[class]
		sort.Slice(cands, func(i, j int) bool { return cands[i].f > cands[j].f })
		limit := cfg.K
		if limit > len(cands) {
			limit = len(cands)
		}
		for _, c := range cands[:limit] {
			out = append(out, c.s)
		}
	}
	if len(out) == 0 {
		return nil, errSTNoCandidates
	}
	return out, nil
}

// STEvaluateCtx runs the full ST pipeline — discovery, classifier training,
// and test scoring — with cooperative cancellation.
func STEvaluateCtx(ctx context.Context, train, test *ts.Dataset, cfg STConfig, svmCfg classify.SVMConfig) (float64, error) {
	return evaluate(ctx, train, test, core.Options{SVM: svmCfg},
		func() ([]classify.Shapelet, error) { return STDiscoverCtx(ctx, train, cfg) })
}
