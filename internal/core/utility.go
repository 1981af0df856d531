// Package core implements the IPS pipeline itself: the three utility
// functions of Def. 11–13, the DT (distribution transformation) and CR
// (computation reuse) optimisations of §III-E, the top-k shapelet selection
// of Algorithm 4, and the end-to-end Discover/Fit/Evaluate entry points.
package core

import (
	"context"
	"math"

	"ips/internal/dabf"
	"ips/internal/dist"
	"ips/internal/errs"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
)

// utilityCheckEvery bounds the utility loops' cancellation latency: the
// context is polled once per this many outer-loop rows (each row is O(n·L²)
// work in the raw path), so ctx.Err's runtime mutex stays off the inner
// loops.
const utilityCheckEvery = 16

// sigmoid is the squashing function of Def. 11–13.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// standardise z-scores xs in place; a constant vector becomes all zeros.
// The paper feeds raw distance sums into the sigmoid; at realistic candidate
// counts those sums saturate the sigmoid to 1.0 for every candidate, so we
// standardise each utility's sums first.  The transformation is monotone per
// utility, preserving the ordering Def. 11–13 induce.
func standardise(xs []float64) {
	var mean float64
	for _, v := range xs {
		mean += v
	}
	n := float64(len(xs))
	if n == 0 {
		return
	}
	mean /= n
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / n)
	if std < 1e-12 {
		for i := range xs {
			xs[i] = 0
		}
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - mean) / std
	}
}

// utilities holds the three per-candidate utility sums for one class.
type utilities struct {
	intra []float64 // Def. 11: Σ dist to same-class motif candidates
	inter []float64 // Def. 12: Σ dist to other classes' motifs/discords
	dc    []float64 // Def. 13: Σ dist to same-class raw instances
}

// scores combines the utilities into Alg. 4 line 6's score
// u = Ũ_intra − Ũ_inter + Ũ_DC; smaller is better.
func (u *utilities) scores() []float64 {
	standardise(u.intra)
	standardise(u.inter)
	standardise(u.dc)
	out := make([]float64, len(u.intra))
	for i := range out {
		out[i] = sigmoid(u.intra[i]) - sigmoid(u.inter[i]) + sigmoid(u.dc[i])
	}
	return out
}

// rawUtilities computes the three utility sums for the motifs of class c
// using raw Def. 4 distances.  useCR enables computation reuse: each
// symmetric pairwise distance is computed once and credited to both
// endpoints; without it the loops recompute every pair from both sides,
// reproducing the cost the CR optimisation removes.  Each utility gets its
// own sub-span of sp; distance-evaluation counts are derived arithmetically
// so the loops themselves carry no instrumentation cost.  The context is
// polled every utilityCheckEvery rows; cancellation returns a nil utilities
// struct and an error matching errs.ErrCanceled.
func rawUtilities(ctx context.Context, motifs []ip.Candidate, others []ip.Candidate, instances []ts.Instance, useCR bool, sp *obs.Span) (*utilities, error) {
	n := len(motifs)
	u := &utilities{
		intra: make([]float64, n),
		inter: make([]float64, n),
		dc:    make([]float64, n),
	}
	dists := sp.Metrics().Counter("core.select.raw_dists")
	// All three utilities run on the batched engine: every motif, other
	// candidate and instance is prepared once, and each pairwise value is
	// byte-identical to the ts.Dist it replaces.
	pm := prepareValues(motifs)
	po := prepareValues(others)
	var counts dist.Counts
	pair := func(a, b *dist.Prepared) float64 {
		if a.Len() < b.Len() {
			a, b = b, a // the longer side is the series; the shorter one slides
		}
		return a.DistCounted(b.Series(), &counts)
	}
	intraSp := sp.Child("utility.intra")
	if useCR {
		// Intra: symmetric matrix, compute the upper triangle once.
		for i := 0; i < n; i++ {
			if i%utilityCheckEvery == 0 {
				if err := errs.Ctx(ctx, errs.StageSelection, "utility.intra"); err != nil {
					intraSp.End()
					return nil, err
				}
			}
			for j := i + 1; j < n; j++ {
				d := pair(pm[i], pm[j])
				u.intra[i] += d
				u.intra[j] += d
			}
		}
		dists.Add(int64(n) * int64(n-1) / 2)
	} else {
		for i := 0; i < n; i++ {
			if i%utilityCheckEvery == 0 {
				if err := errs.Ctx(ctx, errs.StageSelection, "utility.intra"); err != nil {
					intraSp.End()
					return nil, err
				}
			}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				u.intra[i] += pair(pm[i], pm[j])
			}
		}
		dists.Add(int64(n) * int64(n-1))
	}
	intraSp.End()
	interSp := sp.Child("utility.inter")
	// Inter: each (motif, other) pair computed once; CR has nothing to
	// reuse here because the sums are one-sided.
	for i := 0; i < n; i++ {
		if i%utilityCheckEvery == 0 {
			if err := errs.Ctx(ctx, errs.StageSelection, "utility.inter"); err != nil {
				interSp.End()
				return nil, err
			}
		}
		for _, o := range po {
			u.inter[i] += pair(pm[i], o)
		}
	}
	dists.Add(int64(n) * int64(len(others)))
	interSp.End()
	dcSp := sp.Child("utility.dc")
	// DC: instance-outer with one batch over the motifs, so every motif
	// shares each instance's sliding statistics.  dc[i] still accumulates
	// in instance order, preserving the original summation order exactly.
	motifValues := make([][]float64, n)
	for i, m := range motifs {
		motifValues[i] = m.Values
	}
	batch := dist.NewBatch(motifValues)
	col := make([]float64, n)
	var scratch dist.Scratch
	for ii, in := range instances {
		if ii%utilityCheckEvery == 0 {
			if err := errs.Ctx(ctx, errs.StageSelection, "utility.dc"); err != nil {
				dcSp.End()
				return nil, err
			}
		}
		if err := batch.EvalScratchCtx(ctx, dist.Prepare(in.Values), col, &counts, &scratch); err != nil {
			dcSp.End()
			return nil, err
		}
		for i := range col {
			u.dc[i] += col[i]
		}
	}
	dists.Add(int64(n) * int64(len(instances)))
	dcSp.End()
	counts.AddTo(sp.Metrics())
	return u, nil
}

// prepareValues prepares each candidate's values once for the raw utility
// loops, which revisit every candidate many times.
func prepareValues(cands []ip.Candidate) []*dist.Prepared {
	out := make([]*dist.Prepared, len(cands))
	for i, c := range cands {
		out[i] = dist.Prepare(c.Values)
	}
	return out
}

// dtUtilities computes the utility sums through the DT optimisation
// (Formula 15/16): raw Def. 4 distances are replaced by distances in the
// class DABF's LSH projection space, the ‖LSH(Can_i) − LSH(Can_j)‖ lower
// bound of Formula 15.  Each candidate is hashed once (O(Dim·NumHashes))
// and every pairwise evaluation is then O(NumHashes) instead of O(L²).
// useCR additionally reuses the symmetric intra sums.  The context is polled
// every utilityCheckEvery rows, as in rawUtilities; the DT rows are far
// cheaper (O(NumHashes) per pair) so the latency bound is tighter here.
func dtUtilities(ctx context.Context, motifs []ip.Candidate, others []ip.Candidate, instances []ts.Instance,
	cf *dabf.ClassFilter, dim int, useCR bool, sp *obs.Span) (*utilities, error) {
	n := len(motifs)
	u := &utilities{
		intra: make([]float64, n),
		inter: make([]float64, n),
		dc:    make([]float64, n),
	}
	dists := sp.Metrics().Counter("core.select.dt_dists")
	// Hash everything once.
	hashSp := sp.Child("utility.hash")
	mb := make([][]float64, n)
	for i, m := range motifs {
		mb[i] = cf.ProjectValues(m.Values, dim)
	}
	ob := make([][]float64, len(others))
	for i, o := range others {
		ob[i] = cf.ProjectValues(o.Values, dim)
	}
	ib := make([][]float64, len(instances))
	for i, in := range instances {
		ib[i] = cf.ProjectValues(in.Values, dim)
	}
	sp.Metrics().Counter("core.select.hashes").Add(int64(n + len(others) + len(instances)))
	hashSp.End()
	if err := errs.Ctx(ctx, errs.StageSelection, "utility.hash"); err != nil {
		return nil, err
	}
	intraSp := sp.Child("utility.intra")
	if useCR {
		for i := 0; i < n; i++ {
			if i%utilityCheckEvery == 0 {
				if err := errs.Ctx(ctx, errs.StageSelection, "utility.intra"); err != nil {
					intraSp.End()
					return nil, err
				}
			}
			for j := i + 1; j < n; j++ {
				d := ts.EuclideanDist(mb[i], mb[j])
				u.intra[i] += d
				u.intra[j] += d
			}
		}
		dists.Add(int64(n) * int64(n-1) / 2)
	} else {
		for i := 0; i < n; i++ {
			if i%utilityCheckEvery == 0 {
				if err := errs.Ctx(ctx, errs.StageSelection, "utility.intra"); err != nil {
					intraSp.End()
					return nil, err
				}
			}
			for j := 0; j < n; j++ {
				if i != j {
					u.intra[i] += ts.EuclideanDist(mb[i], mb[j])
				}
			}
		}
		dists.Add(int64(n) * int64(n-1))
	}
	intraSp.End()
	interSp := sp.Child("utility.inter")
	for i := 0; i < n; i++ {
		if i%utilityCheckEvery == 0 {
			if err := errs.Ctx(ctx, errs.StageSelection, "utility.inter"); err != nil {
				interSp.End()
				return nil, err
			}
		}
		for _, b := range ob {
			u.inter[i] += ts.EuclideanDist(mb[i], b)
		}
	}
	dists.Add(int64(n) * int64(len(others)))
	interSp.End()
	dcSp := sp.Child("utility.dc")
	for i := 0; i < n; i++ {
		if i%utilityCheckEvery == 0 {
			if err := errs.Ctx(ctx, errs.StageSelection, "utility.dc"); err != nil {
				dcSp.End()
				return nil, err
			}
		}
		for _, b := range ib {
			u.dc[i] += ts.EuclideanDist(mb[i], b)
		}
	}
	dists.Add(int64(n) * int64(len(instances)))
	dcSp.End()
	return u, nil
}
