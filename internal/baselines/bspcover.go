package baselines

import (
	"context"
	"errors"
	"math"
	"sort"

	"ips/internal/classify"
	"ips/internal/dabf"
	"ips/internal/ts"
)

// BSPConfig parameterises the BSPCOVER comparator.
type BSPConfig struct {
	K            int       // shapelets per class
	LengthRatios []float64 // candidate lengths, as in IPS
	MinLength    int
	Stride       float64 // candidate stride as a fraction of the length (default 0.25)
	SAXSegments  int     // SAX word length for similar-candidate pruning (default 8)
}

func (c BSPConfig) defaults() BSPConfig {
	if c.K <= 0 {
		c.K = 5
	}
	if len(c.LengthRatios) == 0 {
		c.LengthRatios = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.MinLength <= 0 {
		c.MinLength = 4
	}
	if c.Stride <= 0 {
		c.Stride = 0.25
	}
	if c.SAXSegments <= 0 {
		c.SAXSegments = 8
	}
	return c
}

// bspCandidate is one BSPCOVER candidate with its quality assessment.
type bspCandidate struct {
	class  int
	values ts.Series
	gain   float64
	split  float64
	covers []int // indices of same-class training instances within the split
}

// BSPCoverDiscoverCtx re-implements the published BSPCOVER pipeline in
// spirit:
//
//  1. candidate generation: every training instance is slid at each
//     configured length with a fractional stride;
//  2. Bloom-filter pruning: candidates sharing a SAX word with an already
//     accepted candidate are pruned as similar (the paper's bit-sequence
//     pruning);
//  3. quality measurement: every surviving candidate is scored by the
//     information gain of its best distance split against EVERY training
//     instance — the full scan that dominates BSPCOVER's runtime and that
//     IPS avoids;
//  4. p-cover selection: per class, candidates are greedily chosen to cover
//     the most not-yet-covered same-class instances, ties broken by gain.
//
// The dominant full-scan quality stage checks ctx per instance pass inside
// the batched distance engine; a cancelled run returns an error matching
// errs.ErrCanceled.
func BSPCoverDiscoverCtx(ctx context.Context, train *ts.Dataset, cfg BSPConfig) ([]classify.Shapelet, error) {
	cfg = cfg.defaults()
	if err := train.Validate(true); err != nil {
		return nil, err
	}
	n := train.SeriesLen()
	labels := train.Labels()

	// Stages 1+2: generate and dedup candidates.
	seen := dabf.NewBloom(64*1024, 0.01)
	var cands []bspCandidate
	for _, in := range train.Instances {
		for _, ratio := range cfg.LengthRatios {
			L := int(ratio * float64(n))
			if L < cfg.MinLength {
				L = cfg.MinLength
			}
			if L > len(in.Values) {
				L = len(in.Values)
			}
			stride := int(cfg.Stride * float64(L))
			if stride < 1 {
				stride = 1
			}
			for at := 0; at+L <= len(in.Values); at += stride {
				sub := in.Values[at : at+L]
				word := SAXWord(sub, cfg.SAXSegments)
				key := []byte(word)
				if seen.Contains(key) {
					continue // similar candidate already accepted
				}
				seen.Add(key)
				cands = append(cands, bspCandidate{class: in.Label, values: sub.Clone()})
			}
		}
	}
	if len(cands) == 0 {
		return nil, errors.New("baselines: BSPCOVER generated no candidates")
	}

	// Stage 3: full-scan quality assessment, batched: the distance matrix
	// shares per-instance sliding statistics across every candidate instead
	// of a fresh scan per (candidate, instance) pair.
	queries := make([][]float64, len(cands))
	for ci := range cands {
		queries[ci] = cands[ci].values
	}
	D, err := distMatrix(ctx, prepareAll(train), nil, queries)
	if err != nil {
		return nil, err
	}
	for ci := range cands {
		dists := D[ci]
		gain, split := bestInfoGainSplit(dists, labels, cands[ci].class)
		cands[ci].gain = gain
		cands[ci].split = split
		for i, d := range dists {
			if labels[i] == cands[ci].class && d <= split {
				cands[ci].covers = append(cands[ci].covers, i)
			}
		}
	}

	// Stage 4: greedy p-cover per class.
	var out []classify.Shapelet
	for _, class := range train.Classes() {
		var classCands []int
		for ci, c := range cands {
			if c.class == class {
				classCands = append(classCands, ci)
			}
		}
		if len(classCands) == 0 {
			continue
		}
		covered := map[int]bool{}
		picked := 0
		for picked < cfg.K && len(classCands) > 0 {
			bestIdx, bestNew := -1, -1
			bestGain := math.Inf(-1)
			for pos, ci := range classCands {
				newCover := 0
				for _, inst := range cands[ci].covers {
					if !covered[inst] {
						newCover++
					}
				}
				if newCover > bestNew || (newCover == bestNew && cands[ci].gain > bestGain) {
					bestIdx, bestNew, bestGain = pos, newCover, cands[ci].gain
				}
			}
			ci := classCands[bestIdx]
			classCands = append(classCands[:bestIdx], classCands[bestIdx+1:]...)
			for _, inst := range cands[ci].covers {
				covered[inst] = true
			}
			out = append(out, classify.Shapelet{Class: class, Values: cands[ci].values, Score: cands[ci].gain})
			picked++
		}
	}
	if len(out) == 0 {
		return nil, errors.New("baselines: BSPCOVER selected no shapelets")
	}
	return out, nil
}

// bestInfoGainSplit finds the distance threshold that best separates the
// target class from the rest by information gain (the classic shapelet
// quality measure of Ye & Keogh).
func bestInfoGainSplit(dists []float64, labels []int, target int) (gain, split float64) {
	type dl struct {
		d     float64
		isTgt bool
	}
	rows := make([]dl, len(dists))
	totalTgt := 0
	for i := range dists {
		rows[i] = dl{d: dists[i], isTgt: labels[i] == target}
		if rows[i].isTgt {
			totalTgt++
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d < rows[j].d })
	n := len(rows)
	baseEnt := binaryEntropy(float64(totalTgt) / float64(n))
	bestGain, bestSplit := 0.0, rows[0].d
	tgtLeft := 0
	for i := 0; i < n-1; i++ {
		if rows[i].isTgt {
			tgtLeft++
		}
		//lint:ignore ipslint/floateq adjacent sorted values: exact tie detection is the split-point definition
		if rows[i].d == rows[i+1].d {
			continue // split must fall between distinct values
		}
		nl := i + 1
		nr := n - nl
		entL := binaryEntropy(float64(tgtLeft) / float64(nl))
		entR := binaryEntropy(float64(totalTgt-tgtLeft) / float64(nr))
		g := baseEnt - (float64(nl)*entL+float64(nr)*entR)/float64(n)
		if g > bestGain {
			bestGain = g
			bestSplit = (rows[i].d + rows[i+1].d) / 2
		}
	}
	return bestGain, bestSplit
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// BSPCoverEvaluateCtx runs the full BSPCOVER pipeline — discovery,
// classifier training, and test scoring — with cooperative cancellation.
func BSPCoverEvaluateCtx(ctx context.Context, train, test *ts.Dataset, cfg BSPConfig, svmCfg classify.SVMConfig) (float64, error) {
	sh, err := BSPCoverDiscoverCtx(ctx, train, cfg)
	if err != nil {
		return 0, err
	}
	m, err := TrainShapeletClassifierCtx(ctx, train, sh, svmCfg)
	if err != nil {
		return 0, err
	}
	return m.AccuracyCtx(ctx, test)
}

// BestInfoGainSplitExported exposes the information-gain split search for
// diagnostic tooling and tests.
func BestInfoGainSplitExported(dists []float64, labels []int, target int) (gain, split float64) {
	return bestInfoGainSplit(dists, labels, target)
}
