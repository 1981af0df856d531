package mp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ips/internal/ts"
)

// propertyCase is one randomised join input: a series (possibly with flat
// segments and exactly repeated patterns, to force zero-variance windows and
// exact distance ties), a window, and an optional validity mask.
type propertyCase struct {
	t     []float64
	w     int
	valid []bool
}

// genCase derives a join input from a seed.  Roughly a third of the cases
// get a constant segment spliced in (zero-variance windows), a third get an
// exactly repeated pattern (bitwise distance ties, so the lower-index
// tie-break is exercised), and a quarter get a validity mask.
func genCase(seed int64) propertyCase {
	rng := rand.New(rand.NewSource(seed))
	ws := []int{3, 4, 5, 8, 16, 32}
	w := ws[rng.Intn(len(ws))]
	n := 2*w + 2 + rng.Intn(140)
	t := make([]float64, n)
	v := 0.0
	for i := range t {
		v += rng.NormFloat64()
		t[i] = v
	}
	switch rng.Intn(3) {
	case 0:
		// Constant segment of at least a full window.
		start := rng.Intn(n - w)
		length := w + rng.Intn(w)
		c := rng.NormFloat64() * 10
		for i := start; i < start+length && i < n; i++ {
			t[i] = c
		}
	case 1:
		// The same pattern at three sites: two of the three pairwise
		// distances tie at exactly 0, so the tie-break decides the index.
		pat := make([]float64, w)
		for i := range pat {
			pat[i] = rng.NormFloat64() * 5
		}
		for _, at := range []int{0, n / 2, n - w} {
			copy(t[at:], pat)
		}
	}
	var valid []bool
	if rng.Intn(4) == 0 {
		valid = make([]bool, n-w+1)
		for i := range valid {
			valid[i] = rng.Intn(5) != 0
		}
	}
	return propertyCase{t: t, w: w, valid: valid}
}

// requireIdentical asserts two profiles are byte-identical: every distance
// bit pattern and every neighbour index must match exactly.
func requireIdentical(t *testing.T, got, want *Profile, label string) {
	t.Helper()
	if len(got.P) != len(want.P) || len(got.I) != len(want.I) {
		t.Fatalf("%s: profile size (%d,%d), want (%d,%d)", label, len(got.P), len(got.I), len(want.P), len(want.I))
	}
	for i := range got.P {
		if math.Float64bits(got.P[i]) != math.Float64bits(want.P[i]) {
			t.Fatalf("%s: P[%d] = %x (%v), want %x (%v)", label,
				i, math.Float64bits(got.P[i]), got.P[i], math.Float64bits(want.P[i]), want.P[i])
		}
		if got.I[i] != want.I[i] {
			t.Fatalf("%s: I[%d] = %d, want %d (P[%d]=%v)", label, i, got.I[i], want.I[i], i, got.P[i])
		}
	}
}

// defDist returns the z-normalised Euclidean distance between two length-w
// windows, computed directly from the definition, under the package's
// documented zero-variance convention (see ts.ZNormSqDistFromStats): two
// constant windows are at distance 0, a constant against a non-constant at
// √(2w).  Plain ZNorm-to-zeros would instead yield √w for the mixed case,
// which is a different (equally common) convention than the kernel's.
func defDist(a, b []float64) float64 {
	const eps = 1e-12
	_, stdA := ts.MeanStd(a)
	_, stdB := ts.MeanStd(b)
	if stdA < eps && stdB < eps {
		return 0
	}
	if stdA < eps || stdB < eps {
		return math.Sqrt(2 * float64(len(a)))
	}
	return math.Sqrt(ts.SqDist(ts.ZNorm(a), ts.ZNorm(b)))
}

// defSelfJoin is the O(N²·w) brute-force self-join reference under defDist.
func defSelfJoin(t []float64, w int, valid []bool) *Profile {
	n := len(t) - w + 1
	p := &Profile{P: make([]float64, n), I: make([]int, n), W: w}
	excl := w / 2
	if excl < 1 {
		excl = 1
	}
	ok := func(i int) bool { return valid == nil || valid[i] }
	for i := 0; i < n; i++ {
		p.P[i] = math.Inf(1)
		p.I[i] = -1
		if !ok(i) {
			continue
		}
		for j := 0; j < n; j++ {
			if d := i - j; !ok(j) || (-excl <= d && d <= excl) {
				continue
			}
			dist := defDist(t[i:i+w], t[j:j+w])
			if dist < p.P[i] {
				p.P[i] = dist
				p.I[i] = j
			}
		}
	}
	return p
}

// defABJoin is the O(N²·w) brute-force AB-join reference under defDist.
func defABJoin(a, b []float64, w int, validA, validB []bool) *Profile {
	na := len(a) - w + 1
	nb := len(b) - w + 1
	p := &Profile{P: make([]float64, na), I: make([]int, na), W: w}
	for i := 0; i < na; i++ {
		p.P[i] = math.Inf(1)
		p.I[i] = -1
		if validA != nil && !validA[i] {
			continue
		}
		for j := 0; j < nb; j++ {
			if validB != nil && !validB[j] {
				continue
			}
			dist := defDist(a[i:i+w], b[j:j+w])
			if dist < p.P[i] {
				p.P[i] = dist
				p.I[i] = j
			}
		}
	}
	return p
}

// nearDegenerate reports whether a window is constant up to round-off.  The
// kernel's O(1) sliding statistics cannot distinguish an exactly constant
// window from one whose cumulative sums left ~1e-13-relative residue, so on
// such windows the kernel follows its own (deterministic) zero-variance
// convention rather than the two-pass reference's; the definitional
// comparison skips them.  Worker-count determinism and NaN-freeness are
// still asserted for every position, degenerate or not.
func nearDegenerate(win []float64) bool {
	mean, std := ts.MeanStd(win)
	return std <= 1e-5*(1+math.Abs(mean))
}

// checkAgainstNaive compares a kernel join of a against b (a==b for a
// self-join) to the brute-force reference: distances must agree within tol,
// infinite rows must agree exactly, and when the neighbour indices differ
// the two candidates must be a genuine tie (their definition-computed
// distances agree within tol).  Positions touching near-degenerate windows
// are exempt from the definitional comparison (see nearDegenerate).
func checkAgainstNaive(t *testing.T, a, b []float64, w int, got, want *Profile, tol float64, label string) {
	t.Helper()
	for i := range got.P {
		gi, wi := got.P[i], want.P[i]
		if math.IsInf(gi, 1) != math.IsInf(wi, 1) {
			t.Fatalf("%s: P[%d] = %v, want %v", label, i, gi, wi)
		}
		if math.IsInf(gi, 1) {
			if got.I[i] != -1 {
				t.Fatalf("%s: infinite P[%d] has neighbour %d, want -1", label, i, got.I[i])
			}
			continue
		}
		if math.IsNaN(gi) {
			t.Fatalf("%s: P[%d] is NaN", label, i)
		}
		if nearDegenerate(a[i:i+w]) || nearDegenerate(b[got.I[i]:got.I[i]+w]) ||
			(want.I[i] >= 0 && nearDegenerate(b[want.I[i]:want.I[i]+w])) {
			continue
		}
		if !ts.ApproxEqualRel(gi, wi, tol) {
			t.Fatalf("%s: P[%d] = %v, want %v", label, i, gi, wi)
		}
		if got.I[i] != want.I[i] {
			// Legitimate only if the alternative neighbour ties.
			alt := defDist(a[i:i+w], b[got.I[i]:got.I[i]+w])
			if !ts.ApproxEqualRel(alt, wi, tol) {
				t.Fatalf("%s: I[%d] = %d (dist %v), want %d (dist %v)", label, i, got.I[i], alt, want.I[i], wi)
			}
		}
	}
}

// TestSelfJoinPropertyWorkers cross-checks the tiled kernel on ~200 seeded
// random series: for every case, SelfJoinCtx at Workers ∈ {1,2,3,8} must be
// byte-identical, must match the naive O(N²·w) reference within tolerance
// (index disagreements only on genuine ties), and must respect the
// exclusion zone and the validity mask.
func TestSelfJoinPropertyWorkers(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		pc := genCase(seed)
		ref := selfJoin(t, pc.t, pc.w, pc.valid, 1)
		for _, workers := range []int{2, 3, 8} {
			got := selfJoin(t, pc.t, pc.w, pc.valid, workers)
			requireIdentical(t, got, ref, labelFor("self", seed, pc.w, workers))
		}
		want := defSelfJoin(pc.t, pc.w, pc.valid)
		checkAgainstNaive(t, pc.t, pc.t, pc.w, ref, want, 1e-4, labelFor("self-naive", seed, pc.w, 1))

		excl := pc.w / 2
		if excl < 1 {
			excl = 1
		}
		for i, j := range ref.I {
			if j < 0 {
				continue
			}
			if d := i - j; -excl <= d && d <= excl {
				t.Fatalf("seed %d: I[%d] = %d violates exclusion zone %d", seed, i, j, excl)
			}
			if pc.valid != nil && (!pc.valid[i] || !pc.valid[j]) {
				t.Fatalf("seed %d: masked pair (%d,%d) in profile", seed, i, j)
			}
		}
	}
}

// TestABJoinPropertyWorkers is the AB-join analogue: byte-identical across
// Workers ∈ {1,2,3,8}, tolerance-equal to the brute-force reference with
// tie-aware index checks, and mask-respecting.
func TestABJoinPropertyWorkers(t *testing.T) {
	for seed := int64(1000); seed < 1200; seed++ {
		ca := genCase(seed)
		cb := genCase(seed + 5000)
		w := ca.w // use a's window for both; cb.t is just a second series
		if len(cb.t)-w+1 <= 0 {
			continue
		}
		var validB []bool
		if cb.valid != nil {
			validB = make([]bool, len(cb.t)-w+1)
			for i := range validB {
				validB[i] = i >= len(cb.valid) || cb.valid[i]
			}
		}
		ref := abJoin(t, ca.t, cb.t, w, ca.valid, validB, 1)
		for _, workers := range []int{2, 3, 8} {
			got := abJoin(t, ca.t, cb.t, w, ca.valid, validB, workers)
			requireIdentical(t, got, ref, labelFor("ab", seed, w, workers))
		}
		want := defABJoin(ca.t, cb.t, w, ca.valid, validB)
		checkAgainstNaive(t, ca.t, cb.t, w, ref, want, 1e-4, labelFor("ab-naive", seed, w, 1))
	}
}

// TestSelfJoinTieBreakLowerIndex pins the tie-break contract on an exact
// tie.  The series is integer-valued, so every rolling dot product, window
// sum, and window mean is computed exactly: the pattern planted at 8, 44,
// and 80 gives position 44 bitwise-identical distances to both copies, and
// the reported neighbour must be the lower index, at every worker count.
func TestSelfJoinTieBreakLowerIndex(t *testing.T) {
	w := 8
	pat := []float64{0, 3, 6, 3, 0, -3, -6, -3}
	n := 96
	tt := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range tt {
		tt[i] = float64(rng.Intn(13) - 6)
	}
	sites := []int{8, 44, 80} // pairwise gaps far beyond the exclusion zone
	for _, at := range sites {
		copy(tt[at:], pat)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := selfJoin(t, tt, w, nil, workers)
		if p.P[44] > 1e-6 {
			t.Fatalf("workers=%d: P[44] = %v, want ~0", workers, p.P[44])
		}
		// 8 and 80 tie bitwise as neighbours of 44; the lower index wins.
		if p.I[44] != 8 {
			t.Fatalf("workers=%d: I[44] = %d, want tie broken to 8", workers, p.I[44])
		}
		if p.I[80] != 8 {
			t.Fatalf("workers=%d: I[80] = %d, want tie broken to 8", workers, p.I[80])
		}
	}
}

func labelFor(kind string, seed int64, w, workers int) string {
	return fmt.Sprintf("%s/seed=%d/w=%d/workers=%d", kind, seed, w, workers)
}
