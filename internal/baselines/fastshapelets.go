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

// FSConfig parameterises the Fast Shapelets baseline (Rakthanmanon & Keogh,
// SDM'13), another Table VI comparison method: candidate subsequences are
// discretised into SAX words, random masking projections count hash
// collisions per class, and the words with the largest between-class
// frequency gaps nominate the shapelets that are then refined by
// information gain.
type FSConfig struct {
	// K is the number of shapelets per class (default 5).
	K int
	// LengthRatios are candidate lengths as fractions of the series length.
	LengthRatios []float64
	MinLength    int
	// SAXSegments is the SAX word length (default 8).
	SAXSegments int
	// Projections is the number of random-masking rounds (default 10).
	Projections int
	// MaskBits is the number of word positions masked per round (default 2).
	MaskBits int
	// TopWords bounds how many high-gap words are refined per class and
	// length (default 10).
	TopWords int
	Seed     int64
}

func (c FSConfig) defaults() FSConfig {
	if c.K <= 0 {
		c.K = 5
	}
	if len(c.LengthRatios) == 0 {
		c.LengthRatios = []float64{0.1, 0.2, 0.3}
	}
	if c.MinLength <= 0 {
		c.MinLength = 4
	}
	if c.SAXSegments <= 0 {
		c.SAXSegments = 8
	}
	if c.Projections <= 0 {
		c.Projections = 10
	}
	if c.MaskBits <= 0 {
		c.MaskBits = 2
	}
	if c.TopWords <= 0 {
		c.TopWords = 10
	}
	return c
}

// fsWord tracks one SAX word's per-class collision counts and a
// representative raw subsequence.
type fsWord struct {
	key    string // the masked SAX word
	counts map[int]float64
	rep    ts.Series
	class  int
	gap    float64
}

// FastShapeletsDiscoverCtx runs the SAX random-masking pipeline and returns
// top-k shapelets per class.  The per-ratio refinement stage checks ctx per
// instance pass inside the batched distance engine.
func FastShapeletsDiscoverCtx(ctx context.Context, train *ts.Dataset, cfg FSConfig) ([]classify.Shapelet, error) {
	cfg = cfg.defaults()
	if err := train.Validate(true); err != nil {
		return nil, err
	}
	n := train.SeriesLen()
	classes := train.Classes()
	classTotals := map[int]float64{}
	for _, in := range train.Instances {
		classTotals[in.Label]++
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Prepare the training instances once across length ratios: every
	// ratio's refinement pass walks the same instances, so their prefix
	// statistics are shared.
	prepared := prepareAll(train)

	var out []classify.Shapelet
	for _, ratio := range cfg.LengthRatios {
		L := int(ratio * float64(n))
		if L < cfg.MinLength {
			L = cfg.MinLength
		}
		if L > n {
			L = n
		}
		// Collect the SAX word of every subsequence (stride L/4) with its
		// owner class and a representative.
		type occ struct {
			word  string
			class int
			rep   ts.Series
		}
		var occs []occ
		stride := L / 4
		if stride < 1 {
			stride = 1
		}
		for _, in := range train.Instances {
			for at := 0; at+L <= len(in.Values); at += stride {
				sub := in.Values[at : at+L]
				occs = append(occs, occ{word: SAXWord(sub, cfg.SAXSegments), class: in.Label, rep: sub})
			}
		}
		// Random masking: in each projection round, mask MaskBits positions
		// of every word and count per-class collisions of the masked keys.
		words := map[string]*fsWord{}
		for p := 0; p < cfg.Projections; p++ {
			mask := rng.Perm(cfg.SAXSegments)[:cfg.MaskBits]
			for _, o := range occs {
				key := maskWord(o.word, mask)
				w := words[key]
				if w == nil {
					w = &fsWord{key: key, counts: map[int]float64{}, rep: o.rep, class: o.class}
					words[key] = w
				}
				w.counts[o.class]++
			}
		}
		// Gap score: normalised own-class frequency minus the best
		// other-class frequency; large gaps mark class-distinctive words.
		var ranked []*fsWord
		for _, w := range words {
			bestClass, bestFreq := 0, -1.0
			secondFreq := 0.0
			for _, class := range classes {
				f := w.counts[class] / classTotals[class]
				if f > bestFreq {
					secondFreq = bestFreq
					bestClass, bestFreq = class, f
				} else if f > secondFreq {
					secondFreq = f
				}
			}
			if secondFreq < 0 {
				secondFreq = 0
			}
			w.class = bestClass
			w.gap = bestFreq - secondFreq
			ranked = append(ranked, w)
		}
		// Ties in gap go to the smaller key, so the ranking does not
		// depend on map order.
		sort.Slice(ranked, func(i, j int) bool {
			//lint:ignore ipslint/floateq exact tie-break keeps the ranking deterministic
			if ranked[i].gap != ranked[j].gap {
				return ranked[i].gap > ranked[j].gap
			}
			return ranked[i].key < ranked[j].key
		})

		// Refine the top words per class by information gain over the raw
		// training distances.  The quota selection depends only on the gap
		// ranking, so the chosen representatives are collected first and
		// scored in one batched distance-matrix pass.
		perClass := map[int]int{}
		labels := train.Labels()
		var chosen []*fsWord
		for _, w := range ranked {
			if perClass[w.class] >= cfg.TopWords {
				continue
			}
			perClass[w.class]++
			chosen = append(chosen, w)
		}
		queries := make([][]float64, len(chosen))
		for i, w := range chosen {
			queries[i] = w.rep
		}
		D, err := distMatrix(ctx, prepared, nil, queries)
		if err != nil {
			return nil, err
		}
		for i, w := range chosen {
			gain, _ := bestInfoGainSplit(D[i], labels, w.class)
			out = append(out, classify.Shapelet{Class: w.class, Values: w.rep.Clone(), Score: gain})
		}
	}
	if len(out) == 0 {
		return nil, errors.New("baselines: fast shapelets found no candidates")
	}
	// Keep the top-k by gain per class.
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	kept := map[int]int{}
	var final []classify.Shapelet
	for _, s := range out {
		if kept[s.Class] >= cfg.K {
			continue
		}
		kept[s.Class]++
		final = append(final, s)
	}
	return final, nil
}

// maskWord replaces the masked positions of a SAX word with '*'.
func maskWord(word string, mask []int) string {
	b := []byte(word)
	for _, m := range mask {
		if m < len(b) {
			b[m] = '*'
		}
	}
	return string(b)
}

// FastShapeletsEvaluateCtx runs the full Fast Shapelets pipeline —
// discovery, classifier training, and test scoring — with cooperative
// cancellation.
func FastShapeletsEvaluateCtx(ctx context.Context, train, test *ts.Dataset, cfg FSConfig, svmCfg classify.SVMConfig) (float64, error) {
	return evaluate(ctx, train, test, core.Options{SVM: svmCfg},
		func() ([]classify.Shapelet, error) { return FastShapeletsDiscoverCtx(ctx, train, cfg) })
}
