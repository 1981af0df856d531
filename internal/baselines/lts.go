package baselines

import (
	"math"
	"math/rand"

	"ips/internal/classify"
	"ips/internal/ts"
)

// LTSConfig parameterises the learning-time-series-shapelets baseline
// (Grabocka et al., KDD'14), one of the Table VI comparison methods: instead
// of searching candidate subsequences, shapelets are *learned* jointly with
// a logistic classifier by gradient descent on a soft-minimum distance.
type LTSConfig struct {
	// K is the number of shapelets learned per class (default 5, matching
	// the search-based methods).
	K int
	// LengthRatio is the shapelet length as a fraction of the series
	// length (default 0.2).
	LengthRatio float64
	// Alpha controls the soft-minimum sharpness (default -30; more
	// negative approaches the hard minimum).
	Alpha float64
	// LearnRate is the gradient step size (default 0.1).
	LearnRate float64
	// Iterations is the number of full-batch descent steps (default 300).
	Iterations int
	// Lambda is the L2 regularisation on the classifier weights
	// (default 0.01).
	Lambda float64
	Seed   int64
}

func (c LTSConfig) defaults() LTSConfig {
	if c.K <= 0 {
		c.K = 5
	}
	if c.LengthRatio <= 0 {
		c.LengthRatio = 0.2
	}
	if c.Alpha >= 0 {
		c.Alpha = -30
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.1
	}
	if c.Iterations <= 0 {
		c.Iterations = 300
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.01
	}
	return c
}

// LTSModel is a trained learning-shapelets classifier.
type LTSModel struct {
	Shapelets []classify.Shapelet // learned shapelets (Class records initialisation origin)
	// W[c][k] and B[c] parameterise the per-class logistic model over the
	// K_total soft-min distances; Classes aligns the rows.
	W       [][]float64
	B       []float64
	Classes []int
	Alpha   float64
}

// LTSTrain learns shapelets and the logistic classifier jointly.
func LTSTrain(train *ts.Dataset, cfg LTSConfig) (*LTSModel, error) {
	cfg = cfg.defaults()
	if err := train.Validate(true); err != nil {
		return nil, err
	}
	n := train.SeriesLen()
	L := int(cfg.LengthRatio * float64(n))
	if L < 4 {
		L = 4
	}
	if L > n {
		L = n
	}
	classes := train.Classes()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initialise shapelets from random training segments of each class —
	// the cheap stand-in for the paper's k-means centroid initialisation.
	byClass := train.ByClass()
	var shapelets []classify.Shapelet
	for _, class := range classes {
		ins := byClass[class]
		for k := 0; k < cfg.K; k++ {
			src := ins[rng.Intn(len(ins))]
			at := rng.Intn(len(src.Values) - L + 1)
			shapelets = append(shapelets, classify.Shapelet{
				Class:  class,
				Values: src.Values[at : at+L].Clone(),
			})
		}
	}
	kTotal := len(shapelets)

	m := &LTSModel{
		Shapelets: shapelets,
		Classes:   classes,
		Alpha:     cfg.Alpha,
		W:         make([][]float64, len(classes)),
		B:         make([]float64, len(classes)),
	}
	for ci := range classes {
		m.W[ci] = make([]float64, kTotal)
		for k := range m.W[ci] {
			m.W[ci][k] = 0.01 * rng.NormFloat64()
		}
	}

	// Full-batch gradient descent on the one-vs-rest logistic losses.
	nInst := len(train.Instances)
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Forward: soft-min distances and their alignment weights.
		M := make([][]float64, nInst)       // M[i][k]
		grads := make([][][]float64, nInst) // grads[i][k][l] = dM/dS_kl aggregated later
		for i, in := range train.Instances {
			M[i] = make([]float64, kTotal)
			grads[i] = make([][]float64, kTotal)
			for k, s := range m.Shapelets {
				M[i][k], grads[i][k] = softMinDistance(s.Values, in.Values, cfg.Alpha)
			}
		}
		// Accumulate classifier and shapelet gradients.
		gW := make([][]float64, len(classes))
		gB := make([]float64, len(classes))
		for ci := range classes {
			gW[ci] = make([]float64, kTotal)
		}
		gS := make([][]float64, kTotal)
		for k := range gS {
			gS[k] = make([]float64, L)
		}
		for i, in := range train.Instances {
			for ci, class := range classes {
				y := 0.0
				if in.Label == class {
					y = 1
				}
				var z float64
				for k := 0; k < kTotal; k++ {
					z += m.W[ci][k] * M[i][k]
				}
				z += m.B[ci]
				p := 1 / (1 + math.Exp(-z))
				d := p - y // dLoss/dz
				gB[ci] += d
				for k := 0; k < kTotal; k++ {
					gW[ci][k] += d * M[i][k]
					// Chain rule into the shapelet values.
					coef := d * m.W[ci][k]
					for l := 0; l < L; l++ {
						gS[k][l] += coef * grads[i][k][l]
					}
				}
			}
		}
		scale := cfg.LearnRate / float64(nInst)
		for ci := range classes {
			for k := 0; k < kTotal; k++ {
				m.W[ci][k] -= scale*gW[ci][k] + cfg.LearnRate*cfg.Lambda*m.W[ci][k]
			}
			m.B[ci] -= scale * gB[ci]
		}
		for k := 0; k < kTotal; k++ {
			for l := 0; l < L; l++ {
				m.Shapelets[k].Values[l] -= scale * gS[k][l]
			}
		}
	}
	return m, nil
}

// softMinDistance returns the soft-minimum of the per-alignment mean squared
// distances between shapelet s and series t, together with the gradient of
// that soft-min with respect to each shapelet value.
func softMinDistance(s, t ts.Series, alpha float64) (float64, []float64) {
	L := len(s)
	nAlign := len(t) - L + 1
	if nAlign <= 0 {
		return 0, make([]float64, L)
	}
	dists := make([]float64, nAlign)
	maxExp := math.Inf(-1)
	for j := 0; j < nAlign; j++ {
		var d float64
		for l := 0; l < L; l++ {
			diff := s[l] - t[j+l]
			d += diff * diff
		}
		dists[j] = d / float64(L)
		if alpha*dists[j] > maxExp {
			maxExp = alpha * dists[j]
		}
	}
	// Numerically stable softmax weights over alpha·d.
	var num, den float64
	weights := make([]float64, nAlign)
	for j, d := range dists {
		w := math.Exp(alpha*d - maxExp)
		weights[j] = w
		num += d * w
		den += w
	}
	softMin := num / den
	// dSoftMin/dS_l = Σ_j w'_j (1 + α(d_j − softMin)) · dd_j/dS_l
	grad := make([]float64, L)
	for j := 0; j < nAlign; j++ {
		wj := weights[j] / den
		coef := wj * (1 + alpha*(dists[j]-softMin))
		for l := 0; l < L; l++ {
			grad[l] += coef * 2 * (s[l] - t[j+l]) / float64(L)
		}
	}
	return softMin, grad
}

// Predict classifies every instance by the per-class logistic scores.
func (m *LTSModel) Predict(d *ts.Dataset) []int {
	out := make([]int, d.Len())
	for i, in := range d.Instances {
		M := make([]float64, len(m.Shapelets))
		for k, s := range m.Shapelets {
			M[k], _ = softMinDistance(s.Values, in.Values, m.Alpha)
		}
		best, bestZ := 0, math.Inf(-1)
		for ci := range m.Classes {
			var z float64
			for k, v := range M {
				z += m.W[ci][k] * v
			}
			z += m.B[ci]
			if z > bestZ {
				best, bestZ = ci, z
			}
		}
		out[i] = m.Classes[best]
	}
	return out
}

// LTSEvaluate trains LTS and returns its test accuracy.
func LTSEvaluate(train, test *ts.Dataset, cfg LTSConfig) (float64, error) {
	m, err := LTSTrain(train, cfg)
	if err != nil {
		return 0, err
	}
	return classify.Accuracy(m.Predict(test), test.Labels()), nil
}
