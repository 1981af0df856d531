package classify

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"ips/internal/errs"
	"ips/internal/faulty"
	"ips/internal/obs"
)

// oracleDualCD is the one-problem-at-a-time solver TrainSVMCtx's lanes
// replaced, kept verbatim as the reference: it solves the binary "class vs
// rest" L1-loss SVM dual by coordinate descent and reports how many passes
// it took.
func oracleDualCD(X [][]float64, y []int, class, dim int, cfg SVMConfig) ([]float64, float64, int) {
	n := len(X)
	C := 1 / (cfg.Lambda * float64(n))
	const biasFeature = 1.0
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
		passes++
		maxDelta := 0.0
		for _, i := range order {
			if qii[i] == 0 {
				continue
			}
			var score float64
			for j, v := range X[i] {
				score += w[j] * v
			}
			score += b * biasFeature
			g := labels[i]*score - 1
			old := alpha[i]
			next := math.Min(math.Max(old-g/qii[i], 0), C)
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
	return w, b, passes
}

// oracleTrain solves every one-vs-rest problem with oracleDualCD, in class
// order.
func oracleTrain(X [][]float64, y []int, cfg SVMConfig) (m *SVM, passes []int) {
	set := map[int]bool{}
	for _, c := range y {
		set[c] = true
	}
	m = &SVM{}
	for c := range set {
		m.Classes = append(m.Classes, c)
	}
	sort.Ints(m.Classes)
	cfg = cfg.defaults(len(X))
	for _, class := range m.Classes {
		w, b, p := oracleDualCD(X, y, class, len(X[0]), cfg)
		m.W = append(m.W, w)
		m.B = append(m.B, b)
		passes = append(passes, p)
	}
	return m, passes
}

// laneFixture draws per points around each of k class centres in dim
// features.  Even classes sit far from the rest and converge within a few
// dozen passes; odd classes overlap their neighbours and run to the epoch
// cap, so a lane group loses members at different passes.
func laneFixture(k, per, dim int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var X [][]float64
	var y []int
	for c := 0; c < k; c++ {
		spread := 1.5
		if c%2 == 0 {
			spread = 0.05
		}
		centre := make([]float64, dim)
		centre[c%dim] = 4 * float64(1+c/dim)
		if c%2 == 1 {
			centre[c%dim] = 0.5
		}
		for i := 0; i < per; i++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = centre[j] + spread*rng.NormFloat64()
			}
			X = append(X, row)
			y = append(y, 10+3*c) // sparse, unordered-looking labels
		}
	}
	rng.Shuffle(len(X), func(a, b int) { X[a], X[b] = X[b], X[a]; y[a], y[b] = y[b], y[a] })
	return X, y
}

// TestTrainSVMMatchesOracle pins the lane solver to the reference
// solver bit for bit — W, B and per-class passes — across class counts
// that fill, underfill and overflow the four lanes, at several worker
// counts, and checks that the svm.class-N spans come in class order with
// the reference pass counts.
func TestTrainSVMMatchesOracle(t *testing.T) {
	const epochs = 300
	for _, k := range []int{2, 3, 5, 8, 9} {
		X, y := laneFixture(k, 9, 6, int64(100+k))
		cfg := SVMConfig{Seed: int64(7 * k), Epochs: epochs}
		want, wantPasses := oracleTrain(X, y, cfg)
		t.Logf("k=%d: reference passes %v", k, wantPasses)
		distinct := map[int]bool{}
		for _, p := range wantPasses {
			distinct[p] = true
		}
		if k > 2 && (len(distinct) < 2 || !distinct[epochs]) {
			t.Fatalf("k=%d: fixture passes %v: want early convergence beside the epoch cap", k, wantPasses)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			cfg.Workers = workers
			o := obs.New("svm-test")
			sp := o.Root().Child("train")
			got, err := TrainSVMCtx(context.Background(), X, y, cfg, sp)
			sp.End()
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			if len(got.Classes) != len(want.Classes) {
				t.Fatalf("k=%d workers=%d: classes %v, want %v", k, workers, got.Classes, want.Classes)
			}
			total := 0
			for ci, class := range want.Classes {
				if got.Classes[ci] != class {
					t.Fatalf("k=%d workers=%d: classes %v, want %v", k, workers, got.Classes, want.Classes)
				}
				if math.Float64bits(got.B[ci]) != math.Float64bits(want.B[ci]) {
					t.Fatalf("k=%d workers=%d class %d: B = %v, want %v", k, workers, class, got.B[ci], want.B[ci])
				}
				for j := range want.W[ci] {
					if math.Float64bits(got.W[ci][j]) != math.Float64bits(want.W[ci][j]) {
						t.Fatalf("k=%d workers=%d class %d: W[%d] = %v, want %v", k, workers, class, j, got.W[ci][j], want.W[ci][j])
					}
				}
				total += wantPasses[ci]
			}
			children := sp.Children()
			if len(children) != k {
				t.Fatalf("k=%d workers=%d: %d class spans, want %d", k, workers, len(children), k)
			}
			for ci, child := range children {
				if name := "svm.class-" + strconv.Itoa(want.Classes[ci]); child.Name() != name {
					t.Fatalf("k=%d workers=%d: span %d is %q, want %q", k, workers, ci, child.Name(), name)
				}
				attrs := child.Attrs()
				if len(attrs) != 1 || attrs[0].Key != "passes" || attrs[0].Value != int64(wantPasses[ci]) {
					t.Fatalf("k=%d workers=%d: span %s attrs %v, want passes=%d", k, workers, child.Name(), attrs, wantPasses[ci])
				}
			}
			if v := o.Metrics().Counter("classify.svm.passes").Value(); v != int64(total) {
				t.Fatalf("k=%d workers=%d: classify.svm.passes = %d, want %d", k, workers, v, total)
			}
		}
	}
}

// countdownCtx reports cancellation once its Err method has been consulted
// n times, from any goroutine, so a test can land the cancel between two
// coordinate-descent passes without depending on timing.
type countdownCtx struct {
	context.Context
	left *atomic.Int64
}

func (c countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTrainSVMCancelMidTraining cancels a fan-out between passes: the run
// must return a nil model and an error matching errs.ErrCanceled, and every
// worker goroutine must be gone.
func TestTrainSVMCancelMidTraining(t *testing.T) {
	X, y := laneFixture(8, 9, 6, 5)
	for _, workers := range []int{2, 3, 8} {
		for _, after := range []int64{1, 7, 40} {
			lc := faulty.NewLeakCheck()
			left := &atomic.Int64{}
			left.Store(after)
			ctx := countdownCtx{Context: context.Background(), left: left}
			m, err := TrainSVMCtx(ctx, X, y, SVMConfig{Seed: 3, Epochs: 1000, Workers: workers}, nil)
			if !errors.Is(err, errs.ErrCanceled) {
				t.Fatalf("workers=%d after=%d: err = %v, want ErrCanceled", workers, after, err)
			}
			if m != nil {
				t.Fatalf("workers=%d after=%d: cancelled run returned a model", workers, after)
			}
			if msg := lc.Done(5 * time.Second); msg != "" {
				t.Fatalf("workers=%d after=%d: %s", workers, after, msg)
			}
		}
	}
}

// TestTrainSVMRagged pins the typed error for rows of unequal width.
func TestTrainSVMRagged(t *testing.T) {
	X := [][]float64{{1, 2}, {3}, {4, 5}}
	if _, err := TrainSVMCtx(context.Background(), X, []int{0, 1, 0}, SVMConfig{}, nil); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("ragged rows: err = %v, want ErrBadInput", err)
	}
}
