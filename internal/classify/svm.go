package classify

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"ips/internal/errs"
	"ips/internal/obs"
)

// SVMConfig parameterises TrainSVMCtx.
type SVMConfig struct {
	// Lambda is the L2 regularisation strength; the solver uses the
	// per-example budget C = 1/(Lambda·n).  When zero it defaults to 1/n,
	// i.e. C = 1.
	Lambda float64
	// Epochs bounds the number of dual coordinate descent passes
	// (default 1000; the solver stops earlier on convergence).
	Epochs int
	// Seed drives the coordinate visiting order.
	Seed int64
}

func (c SVMConfig) defaults(n int) SVMConfig {
	if c.Lambda <= 0 {
		c.Lambda = 1 / float64(n)
	}
	if c.Epochs <= 0 {
		c.Epochs = 1000
	}
	return c
}

// SVM is a one-vs-rest linear-kernel support vector machine (the classifier
// the paper applies to shapelet-transformed data), trained by dual
// coordinate descent (Hsieh et al., the LIBLINEAR L1-loss solver).
type SVM struct {
	Classes []int
	// W[c] is the weight vector for class Classes[c]; B[c] its bias.
	W [][]float64
	B []float64
}

// TrainSVMCtx fits one binary hinge-loss SVM per class on features X with
// labels y.  sp receives a sub-span per one-vs-rest problem annotated with
// the coordinate-descent passes it took to converge, and a
// classify.svm.passes counter totalling them.  A nil span disables all of
// it; the trained weights are identical either way.  Cancellation is checked
// per coordinate-descent pass; a cancelled run returns a nil model and an
// error matching errs.ErrCanceled.
//
//ips:blocking
func TrainSVMCtx(ctx context.Context, X [][]float64, y []int, cfg SVMConfig, sp *obs.Span) (*SVM, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errs.BadInput(errs.StageTrain, "classify.svm", "",
			"bad training shape: %d rows, %d labels", len(X), len(y))
	}
	cfg = cfg.defaults(len(X))
	dim := len(X[0])
	classSet := map[int]bool{}
	for _, c := range y {
		classSet[c] = true
	}
	classes := make([]int, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	if len(classes) < 2 {
		return nil, errs.BadInput(errs.StageTrain, "classify.svm", "",
			"need at least two classes, have %d", len(classes))
	}
	passesCtr := sp.Metrics().Counter("classify.svm.passes")
	m := &SVM{Classes: classes, W: make([][]float64, len(classes)), B: make([]float64, len(classes))}
	for ci, class := range classes {
		csp := sp.Child("svm.class-" + strconv.Itoa(class))
		w, b, passes, err := dualCD(ctx, X, y, class, dim, cfg)
		passesCtr.Add(int64(passes))
		csp.SetInt("passes", int64(passes))
		csp.End()
		if err != nil {
			return nil, err
		}
		m.W[ci] = w
		m.B[ci] = b
	}
	return m, nil
}

// dualCD solves the binary "class vs rest" L1-loss SVM dual by coordinate
// descent and reports how many passes it took.  The bias is handled by
// augmenting each example with a constant feature.  The context is checked
// once per pass, bounding cancellation latency to one O(n·dim) sweep.
func dualCD(ctx context.Context, X [][]float64, y []int, class, dim int, cfg SVMConfig) ([]float64, float64, int, error) {
	n := len(X)
	C := 1 / (cfg.Lambda * float64(n))
	const biasFeature = 1.0
	// Precompute labels and Q_ii = ‖x_i‖² + bias².
	labels := make([]float64, n)
	qii := make([]float64, n)
	for i, row := range X {
		labels[i] = -1
		if y[i] == class {
			labels[i] = 1
		}
		var q float64
		for _, v := range row {
			q += v * v
		}
		qii[i] = q + biasFeature*biasFeature
	}
	alpha := make([]float64, n)
	w := make([]float64, dim)
	var b float64
	rng := rand.New(rand.NewSource(cfg.Seed + int64(class)))
	order := rng.Perm(n)
	const tol = 1e-8
	passes := 0
	for pass := 0; pass < cfg.Epochs; pass++ {
		if err := errs.Ctx(ctx, errs.StageTrain, "classify.svm"); err != nil {
			return nil, 0, passes, err
		}
		passes++
		maxDelta := 0.0
		for _, i := range order {
			if qii[i] == 0 {
				continue
			}
			// Gradient of the dual objective for coordinate i.
			var score float64
			for j, v := range X[i] {
				score += w[j] * v
			}
			score += b * biasFeature
			g := labels[i]*score - 1
			old := alpha[i]
			next := math.Min(math.Max(old-g/qii[i], 0), C)
			//lint:ignore ipslint/floateq no-op update check: both sides come from the same clamp, so equality is exact
			if next == old {
				continue
			}
			d := (next - old) * labels[i]
			for j, v := range X[i] {
				w[j] += d * v
			}
			b += d * biasFeature
			alpha[i] = next
			if delta := math.Abs(next - old); delta > maxDelta {
				maxDelta = delta
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return w, b, passes, nil
}

// Decision returns the decision value of each class for x, aligned with
// m.Classes.
func (m *SVM) Decision(x []float64) []float64 {
	out := make([]float64, len(m.Classes))
	m.DecisionInto(x, out)
	return out
}

// DecisionInto writes the decision value of each class for x into dec
// (len(dec) must equal len(m.Classes)).  It is the allocation-free form of
// Decision for serving loops that own their scratch.
//
//ips:hotpath
func (m *SVM) DecisionInto(x, dec []float64) {
	for ci := range m.Classes {
		var s float64
		for j, v := range x {
			s += m.W[ci][j] * v
		}
		dec[ci] = s + m.B[ci]
	}
}

// Predict returns the class with the highest decision value.
func (m *SVM) Predict(x []float64) int {
	dec := m.Decision(x)
	best := 0
	for i := 1; i < len(dec); i++ {
		if dec[i] > dec[best] {
			best = i
		}
	}
	return m.Classes[best]
}

// PredictRow is Predict with caller-owned decision scratch (len(dec) must
// equal len(m.Classes)); it allocates nothing.
//
//ips:hotpath
func (m *SVM) PredictRow(x, dec []float64) int {
	m.DecisionInto(x, dec)
	best := 0
	for i := 1; i < len(dec); i++ {
		if dec[i] > dec[best] {
			best = i
		}
	}
	return m.Classes[best]
}

// PredictAll classifies every row of X.
func (m *SVM) PredictAll(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}
