package classify

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/par"
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
	// Seed drives the coordinate visiting order: class c's problem visits
	// the coordinates in the permutation drawn from Seed + c.
	Seed int64
	// Workers is the number of goroutines the one-vs-rest problems fan out
	// over (<=1 means the calling goroutine).  The model is bit-identical
	// for any value.
	Workers int
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

const (
	// svmLanes is how many one-vs-rest problems one goroutine advances in
	// lockstep.
	svmLanes = 4
	// svmBias is the constant feature each example is augmented with, so
	// the bias is learned as one more weight.
	svmBias = 1.0
	// svmTol stops a problem after a pass whose largest |Δα| is below it.
	svmTol = 1e-8
)

// TrainSVMCtx fits one binary hinge-loss SVM per class on features X with
// labels y.
//
// The one-vs-rest problems are dealt to cfg.Workers workers of the shared
// pool (par.Run), and each worker advances up to four of them in lockstep
// lanes: at every step of a pass each lane updates one coordinate of its own
// problem, and the lanes' scores w·x are summed in one loop, so their add
// chains overlap instead of waiting on each other.  A problem leaves its
// lane when it converges or reaches cfg.Epochs, and the next problem the
// pool deals takes the lane.  Every problem keeps its own visiting order,
// dual variables, weights and bias and performs the same operations in the
// same order as it would alone, so W, B and the pass counts are
// bit-identical for any worker count.
//
// sp receives one svm.class-N sub-span per problem, in class order, open
// from the start of training until the problem leaves its lane and
// annotated with the coordinate-descent passes it took, and a
// classify.svm.passes counter totalling them.  A nil span disables all of
// it; the trained weights are identical either way.  Cancellation is
// checked before every pass; a cancelled run returns a nil model and an
// error matching errs.ErrCanceled once every worker has stopped.
//
//ips:blocking
func TrainSVMCtx(ctx context.Context, X [][]float64, y []int, cfg SVMConfig, sp *obs.Span) (*SVM, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errs.BadInput(errs.StageTrain, "classify.svm", "",
			"bad training shape: %d rows, %d labels", len(X), len(y))
	}
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return nil, errs.BadInput(errs.StageTrain, "classify.svm", "",
				"ragged features: row %d has %d, row 0 has %d", i, len(row), dim)
		}
	}
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
	cfg = cfg.defaults(len(X))
	s := newSVMSolver(X, y, classes, cfg)
	for _, class := range classes {
		s.spans = append(s.spans, sp.Child("svm.class-"+strconv.Itoa(class)))
	}

	// Spread the problems over as many workers as cfg.Workers allows before
	// giving one worker several lanes; a worker with more than four problems
	// to solve refills its lanes from the pool.
	k := len(classes)
	workers := min(max(cfg.Workers, 1), k)
	width := min(svmLanes, (k+workers-1)/workers)
	par.Run(ctx, min(workers, (k+width-1)/width), k, func(_ int, next func() (int, bool)) {
		s.work(ctx, width, next)
	})
	// A cancelled pool leaves problems unstarted, and a cancelled worker
	// stops its lanes mid-problem: either way ctx reports it.
	err := errs.Ctx(ctx, errs.StageTrain, "classify.svm")

	passesCtr := sp.Metrics().Counter("classify.svm.passes")
	m := &SVM{Classes: classes, W: make([][]float64, k), B: make([]float64, k)}
	for ci, p := range s.done {
		passes := 0
		if p != nil {
			passes = p.passes
			m.W[ci], m.B[ci] = p.w, p.b
		}
		passesCtr.Add(int64(passes))
		s.spans[ci].SetInt("passes", int64(passes))
		s.spans[ci].End()
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// svmSolver holds what the one-vs-rest problems share: the features, the
// diagonal Q_ii = ‖x_i‖² + bias² (at least 1, so every step may divide by
// it) and the budget C.  Each problem's result lands in done at its class
// index.
type svmSolver struct {
	X       [][]float64
	y       []int
	classes []int
	qii     []float64
	C       float64
	cfg     SVMConfig
	// idle pads a group to svmLanes lanes: zero weights, never updated.
	idle *svmProblem

	done  []*svmProblem
	spans []*obs.Span
}

// svmProblem is the state of the binary "class vs rest" L1-loss SVM dual.
type svmProblem struct {
	ci       int       // index into the solver's classes
	order    []int     // coordinate visiting order
	labels   []float64 // +1 for the class, −1 for the rest
	alpha    []float64
	w        []float64
	b        float64
	passes   int
	maxDelta float64 // largest |Δα| of the current pass
}

func newSVMSolver(X [][]float64, y []int, classes []int, cfg SVMConfig) *svmSolver {
	n, dim := len(X), len(X[0])
	qii := make([]float64, n)
	for i, row := range X {
		var q float64
		for _, v := range row {
			q += v * v
		}
		qii[i] = q + svmBias*svmBias
	}
	return &svmSolver{
		X: X, y: y, classes: classes, qii: qii,
		C:    1 / (cfg.Lambda * float64(n)),
		cfg:  cfg,
		idle: &svmProblem{order: make([]int, n), w: make([]float64, dim)},
		done: make([]*svmProblem, len(classes)),
	}
}

// take starts the problem of the next class index the pool deals, or
// returns nil when none is left.
func (s *svmSolver) take(next func() (int, bool)) *svmProblem {
	ci, ok := next()
	if !ok {
		return nil
	}
	n, class := len(s.X), s.classes[ci]
	p := &svmProblem{ci: ci, labels: make([]float64, n), alpha: make([]float64, n), w: make([]float64, len(s.X[0]))}
	for i, c := range s.y {
		p.labels[i] = -1
		if c == class {
			p.labels[i] = 1
		}
	}
	p.order = rand.New(rand.NewSource(s.cfg.Seed + int64(class))).Perm(n)
	return p
}

// work advances up to width problems in lockstep until the pool has none
// left to deal.  A problem retires after a pass that converged or reached
// cfg.Epochs, and the next dealt problem takes its lane.  The context is
// checked once per pass, bounding cancellation latency to one O(n·dim)
// sweep; a cancelled worker files its problems unfinished.
func (s *svmSolver) work(ctx context.Context, width int, next func() (int, bool)) {
	group := make([]*svmProblem, 0, width)
	for {
		for len(group) < width {
			p := s.take(next)
			if p == nil {
				break
			}
			group = append(group, p)
		}
		if len(group) == 0 {
			return
		}
		if ctx.Err() != nil {
			for _, p := range group {
				s.done[p.ci] = p
			}
			return
		}
		s.pass(group)
		kept := group[:0]
		for _, p := range group {
			if p.maxDelta < svmTol || p.passes == s.cfg.Epochs {
				s.done[p.ci] = p
				s.spans[p.ci].End()
			} else {
				kept = append(kept, p)
			}
		}
		group = kept
	}
}

// pass runs one coordinate-descent pass of every problem in group (one to
// svmLanes of them) in lockstep.  At step t lane k scores coordinate
// order_k[t] of its own problem: the lanes' w·x sums share one loop but
// keep one accumulator each, adding in index order, so each sum is
// bit-identical to a loop of its own.  Lanes beyond len(group) score the
// idle problem and their scores are dropped.
func (s *svmSolver) pass(group []*svmProblem) {
	var lane [svmLanes]*svmProblem
	for k := range lane {
		lane[k] = s.idle
		if k < len(group) {
			lane[k] = group[k]
		}
	}
	for _, p := range group {
		p.passes++
		p.maxDelta = 0
	}
	dim := len(s.idle.w)
	w0, w1, w2, w3 := lane[0].w[:dim], lane[1].w[:dim], lane[2].w[:dim], lane[3].w[:dim]
	o0, o1, o2, o3 := lane[0].order, lane[1].order, lane[2].order, lane[3].order
	for t := range o0 {
		at := [svmLanes]int{o0[t], o1[t], o2[t], o3[t]}
		x0, x1, x2, x3 := s.X[at[0]][:dim], s.X[at[1]][:dim], s.X[at[2]][:dim], s.X[at[3]][:dim]
		var s0, s1, s2, s3 float64
		for j, v := range x0 {
			s0 += w0[j] * v
			s1 += w1[j] * x1[j]
			s2 += w2[j] * x2[j]
			s3 += w3[j] * x3[j]
		}
		score := [svmLanes]float64{s0, s1, s2, s3}
		for k, p := range group {
			// One dual coordinate-descent step on coordinate i.  The builtin
			// min and max treat NaN and signed zeros as math.Min and
			// math.Max do, without the call.
			i := at[k]
			score[k] += p.b * svmBias
			g := p.labels[i]*score[k] - 1
			old := p.alpha[i]
			next := min(max(old-g/s.qii[i], 0), s.C)
			//lint:ignore ipslint/floateq no-op update check: both sides come from the same clamp, so equality is exact
			if next == old {
				continue
			}
			p.update(s.X[i], i, old, next)
		}
	}
}

// update moves coordinate i of p's dual from old to next and folds the
// change into the primal weights w and bias b.
func (p *svmProblem) update(x []float64, i int, old, next float64) {
	d := (next - old) * p.labels[i]
	for j, v := range x {
		p.w[j] += d * v
	}
	p.b += d * svmBias
	p.alpha[i] = next
	if delta := math.Abs(next - old); delta > p.maxDelta {
		p.maxDelta = delta
	}
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
