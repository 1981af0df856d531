// Package core implements the IPS pipeline itself: the three utility
// functions of Def. 11–13, the DT (distribution transformation) and CR
// (computation reuse) optimisations of §III-E, the top-k shapelet selection
// of Algorithm 4, and the end-to-end Discover/Fit/Evaluate entry points.
// Raw and DT scoring run the same utility loop with different distances.
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

// sumUtilities is the utility loop the raw and DT paths share: it
// accumulates the three utility sums for the n motifs at the front of cands
// against each other, against the other classes' candidates behind them, and
// against the class's instances.  Each path supplies only pair, its distance
// between two candidates, and dcColumn, which fills col[i] with motif i's
// distance to instance ii.  useCR enables computation reuse: each symmetric
// intra-class distance is computed once and credited to both endpoints;
// without it the loop computes every pair from both sides, reproducing the
// cost the CR optimisation removes.  Each utility gets its own sub-span of
// sp; the evaluations are counted arithmetically into the counter named
// dists, so the loops themselves carry no instrumentation cost.  The context
// is polled every utilityCheckEvery rows; cancellation returns a nil
// utilities struct and an error matching errs.ErrCanceled.
func sumUtilities[T any](ctx context.Context, cands []T, n, instances int, useCR bool,
	pair func(a, b T) float64, dcColumn func(ii int, col []float64) error, dists string, sp *obs.Span) (*utilities, error) {
	u := &utilities{
		intra: make([]float64, n),
		inter: make([]float64, n),
		dc:    make([]float64, n),
	}
	counter := sp.Metrics().Counter(dists)
	motifs, others := cands[:n], cands[n:]
	intraSp := sp.Child("utility.intra")
	for i := 0; i < n; i++ {
		if i%utilityCheckEvery == 0 {
			if err := errs.Ctx(ctx, errs.StageSelection, "utility.intra"); err != nil {
				intraSp.End()
				return nil, err
			}
		}
		if useCR {
			// Symmetric matrix: compute the upper triangle once.
			for j := i + 1; j < n; j++ {
				d := pair(motifs[i], motifs[j])
				u.intra[i] += d
				u.intra[j] += d
			}
			continue
		}
		for j := 0; j < n; j++ {
			if i != j {
				u.intra[i] += pair(motifs[i], motifs[j])
			}
		}
	}
	pairs := int64(n) * int64(n-1)
	if useCR {
		pairs /= 2
	}
	counter.Add(pairs)
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
		for _, o := range others {
			u.inter[i] += pair(motifs[i], o)
		}
	}
	counter.Add(int64(n) * int64(len(others)))
	interSp.End()
	dcSp := sp.Child("utility.dc")
	// DC: instance-outer, one column of motif distances per instance, so the
	// raw path's engine shares each instance's sliding statistics across all
	// motifs.  dc[i] still accumulates in instance order.
	col := make([]float64, n)
	for ii := 0; ii < instances; ii++ {
		if ii%utilityCheckEvery == 0 {
			if err := errs.Ctx(ctx, errs.StageSelection, "utility.dc"); err != nil {
				dcSp.End()
				return nil, err
			}
		}
		if err := dcColumn(ii, col); err != nil {
			dcSp.End()
			return nil, err
		}
		for i := range col {
			u.dc[i] += col[i]
		}
	}
	counter.Add(int64(n) * int64(instances))
	dcSp.End()
	return u, nil
}

// rawUtilities computes the three utility sums for the motifs of class c
// through sumUtilities with raw Def. 4 distances.  All three utilities run
// on the batched engine: every motif, other candidate and instance is
// prepared once, and each pairwise value is byte-identical to the ts.Dist it
// replaces.  The engine's kernel counts are published to sp's metrics once
// the sums are complete.
func rawUtilities(ctx context.Context, motifs []ip.Candidate, others []ip.Candidate, instances []ts.Instance, useCR bool, sp *obs.Span) (*utilities, error) {
	cands := append(prepareValues(motifs), prepareValues(others)...)
	var counts dist.Counts
	pair := func(a, b *dist.Prepared) float64 {
		if a.Len() < b.Len() {
			a, b = b, a // the longer side is the series; the shorter one slides
		}
		return a.DistCounted(b.Series(), &counts)
	}
	// One batch over the motifs, so every motif shares each instance's
	// sliding statistics.
	motifValues := make([][]float64, len(motifs))
	for i, m := range motifs {
		motifValues[i] = m.Values
	}
	batch := dist.NewBatch(motifValues)
	var scratch dist.Scratch
	dcColumn := func(ii int, col []float64) error {
		return batch.EvalScratchCtx(ctx, scratch.Prepare(instances[ii].Values), col, &counts, &scratch)
	}
	u, err := sumUtilities(ctx, cands, len(motifs), len(instances), useCR, pair, dcColumn, "core.select.raw_dists", sp)
	if err != nil {
		return nil, err
	}
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
// bound of Formula 15.  Each candidate and instance is hashed once
// (O(Dim·NumHashes)) and every evaluation in sumUtilities is then
// O(NumHashes) instead of O(L²), so the shared loop's cancellation latency
// is tighter here than on the raw path.
func dtUtilities(ctx context.Context, motifs []ip.Candidate, others []ip.Candidate, instances []ts.Instance,
	cf *dabf.ClassFilter, dim int, useCR bool, sp *obs.Span) (*utilities, error) {
	hashSp := sp.Child("utility.hash")
	cands := make([][]float64, 0, len(motifs)+len(others))
	for _, cs := range [][]ip.Candidate{motifs, others} {
		for _, c := range cs {
			cands = append(cands, cf.ProjectValues(c.Values, dim))
		}
	}
	ib := make([][]float64, len(instances))
	for i, in := range instances {
		ib[i] = cf.ProjectValues(in.Values, dim)
	}
	sp.Metrics().Counter("core.select.hashes").Add(int64(len(cands) + len(instances)))
	hashSp.End()
	if err := errs.Ctx(ctx, errs.StageSelection, "utility.hash"); err != nil {
		return nil, err
	}
	mb := cands[:len(motifs)]
	dcColumn := func(ii int, col []float64) error {
		for i, m := range mb {
			col[i] = ts.EuclideanDist(m, ib[ii])
		}
		return nil
	}
	return sumUtilities(ctx, cands, len(motifs), len(instances), useCR, ts.EuclideanDist, dcColumn, "core.select.dt_dists", sp)
}
