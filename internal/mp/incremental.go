package mp

import (
	"math"

	"ips/internal/errs"
	"ips/internal/ts"
)

// Incremental maintains a self-join matrix profile under appends (STOMPI):
// each Append extends the series by one point and updates the profile in
// O(N) — one rolling-statistics advance, then one upward walk over the
// windows that rolls the dot row along the matrix diagonals, scores the new
// window against every old one and keeps the motif and discord — instead of
// recomputing the O(N²) join.
//
// The maintained profile is byte-identical to a fresh SelfJoinCtx over the
// current series after every append, by construction rather than by
// tolerance: window statistics advance through the same ts.Rolling state
// MovingMeanStd walks, every dot product is reached by rolling the same
// diagonal recurrence (rollDot) from the same ts.Dot seed the batch kernel
// uses, distances go through ts.CorrTerms and ts.ZNormSqDistFromTerms with
// the smaller window index first exactly as the tile walker passes them,
// and ties on exact distance resolve to the lower neighbour index as in
// mergeRange.  A cell reaches the division only where corrFloor's
// division-free test cannot rule out that it improves either window, so
// skipping the rest changes no bit.
//
// Incremental is not safe for concurrent use; callers serialise appends.
type Incremental struct {
	t    ts.Series
	w    int
	excl int
	p    []float64 // squared z-norm distances (sqrt applied on Profile())
	i    []int
	// c[j] is corrFloor of p[j], or −Inf at a window whose std is below
	// ts.FlatStd (or NaN).
	c []float64
	// floors is whether every point so far has w·t² < 2¹⁰⁰⁰, the bound
	// under which selfJoinWalker raises floors.  Once a point breaks it,
	// the new window's floor stays −Inf, so every cell of every later
	// append goes exact whatever c holds.
	floors bool
	// motif and discord are what MinIndex and MaxIndex return, kept by
	// the append walk.
	motif, discord int
	// Sliding-window statistics of every window so far, grown one entry
	// per append past the first full window; roll is the cumulative-sum
	// state of the newest window.
	means, stds []float64
	roll        ts.Rolling
	// dots[j] = dot(t[j:j+w], t[last:last+w]) for the newest window: the
	// previous append's row, reused by the STOMPI recurrence — entry j of
	// the new row is one rollDot step from entry j−1 of the old row, both
	// cells of the same matrix diagonal.
	dots []float64
}

// NewIncremental starts an incremental profile over the initial series.
// It rejects w < 1 and non-finite initial values as typed errs.ErrBadInput
// — the silent-garbage alternative (NaN poisoning every future profile
// entry it touches) is exactly what the batch path's validation prevents.
// The initial profile is seeded by replaying the appends, so it is
// byte-identical to SelfJoinCtx for the same reason every later step is.
func NewIncremental(initial []float64, w int) (*Incremental, error) {
	if w < 1 {
		return nil, errs.BadInput(errs.StageKernel, "mp.incremental", "", "window must be >= 1 (got %d)", w)
	}
	for idx, v := range initial {
		if !isFinite(v) {
			return nil, errs.BadInput(errs.StageKernel, "mp.incremental", "", "non-finite value %v at index %d", v, idx)
		}
	}
	excl := w / 2
	if excl < 1 {
		excl = 1
	}
	inc := &Incremental{w: w, excl: excl, floors: true, motif: -1, discord: -1}
	inc.Reserve(len(initial))
	for _, v := range initial {
		inc.appendPoint(v)
	}
	return inc, nil
}

// Append adds one value to the series and updates the profile in O(N).
// A non-finite value is rejected as typed errs.ErrBadInput before any
// state changes, so the profile remains valid and further appends may
// continue.  Degenerate (constant) trailing windows are not an error: they
// flow through the same near-zero-std guards as the batch kernel (two
// constant windows are at distance 0, a constant and a non-constant window
// at the maximum 2w) and stay byte-identical to SelfJoinCtx.
func (inc *Incremental) Append(v float64) error {
	if !isFinite(v) {
		return errs.BadInput(errs.StageKernel, "mp.incremental", "", "non-finite value %v appended at index %d", v, len(inc.t))
	}
	inc.appendPoint(v)
	return nil
}

// Reserve grows the internal buffers to hold a series of total points
// without further allocation, so a caller that knows (or bounds) its
// stream length makes every subsequent Append allocation-free.
func (inc *Incremental) Reserve(total int) {
	nw := total - inc.w + 1
	if nw < 0 {
		nw = 0
	}
	inc.t = growFloats(inc.t, total)
	inc.p = growFloats(inc.p, nw)
	inc.c = growFloats(inc.c, nw)
	inc.means = growFloats(inc.means, nw)
	inc.stds = growFloats(inc.stds, nw)
	inc.dots = growFloats(inc.dots, nw)
	inc.i = growInts(inc.i, nw)
}

// appendPoint is the STOMPI kernel: one point in, one profile row out.
// It runs once per streamed point on the serving path, so after Reserve it
// must not allocate.
//
//ips:hotpath
func (inc *Incremental) appendPoint(v float64) {
	inc.t = append(inc.t, v)
	inc.floors = inc.floors && float64(inc.w)*v*v < 0x1p1000
	n := len(inc.t) - inc.w + 1
	if n <= 0 {
		return
	}
	newIdx := n - 1
	w := inc.w
	t := inc.t

	// Window statistics: the first full window seeds the shared Rolling
	// state; every later window is one Advance — the identical walk
	// MovingMeanStd performs, so the stats are bitwise equal to a batch
	// recompute.
	if newIdx == 0 {
		inc.roll = ts.NewRolling(t[:w])
	} else {
		inc.roll.Advance(t[newIdx-1], t[newIdx+w-1])
	}
	m, s := inc.roll.MeanStd()
	inc.means = append(inc.means, m)
	inc.stds = append(inc.stds, s)
	inc.dots = append(inc.dots, 0)

	// One upward walk over the old windows.  Dot row: pair (j, newIdx)
	// lies on diagonal newIdx−j, whose previous cell (j−1, newIdx−1) is
	// entry j−1 of last append's row, so the walk saves each old entry in
	// old before it overwrites it with the new one, dot, and rolls old
	// into the next new entry.  Entry 0 opens diagonal newIdx and is
	// seeded with the same ts.Dot the batch walker seeds it with.
	// Excluded diagonals (newIdx−j <= excl) are maintained but never
	// scored; a cell stays on its diagonal forever, so they can never
	// leak into a distance.
	//
	// Scores: the pairs with newIdx−j > excl, j < lim, update position j
	// when newIdx becomes its nearest neighbour, and reduce into the new
	// row.  Both comparisons are strictly `<`: newIdx is the largest index
	// in play, so on an exact tie the established lower neighbour index
	// must win, matching mergeRange's total order on (distance, neighbour
	// index), and walking j upward makes the new row's own ties resolve to
	// the lowest j the same way.  A cell whose corrFloor test rules out
	// both (num < den·c[j] and num < den·cNew) would lose both
	// comparisons, so it never reaches the division.
	//
	// Motif and discord: every old window's distance is final once the
	// walk has passed it, so the walk reduces them as MinIndex and
	// MaxIndex would scan, ties to the lowest index.
	fw := float64(w)
	var tOld, tNew float64 // the new window's leaving and entering points
	if newIdx > 0 {
		tOld, tNew = t[newIdx-1], t[newIdx+w-1]
	}
	floorNew := inc.floors && s >= ts.FlatStd
	best, bestJ, cNew := math.Inf(1), -1, math.Inf(-1)
	mn, mnJ, mx, mxJ := math.Inf(1), -1, math.Inf(-1), -1
	dot := ts.Dot(t[:w], t[newIdx:newIdx+w])
	// Every slice of the scored walk has length lim, so the compiler
	// drops its bounds checks.
	lim := max(newIdx-inc.excl, 0)
	dots, means, stds := inc.dots[:lim], inc.means[:lim], inc.stds[:lim]
	p, idx, c := inc.p[:lim], inc.i[:lim], inc.c[:lim]
	lo, hi := t[:lim], t[w:w+lim]
	for j := range dots {
		old := dots[j]
		dots[j] = dot
		num, den := ts.CorrTerms(dot, fw, means[j], stds[j], m, s)
		if !(num < den*c[j] && num < den*cNew) {
			d := ts.ZNormSqDistFromTerms(num, den, fw, stds[j], s)
			if d < best {
				best, bestJ = d, j
				if floorNew {
					cNew = corrFloor(d, w)
				}
			}
			if d < p[j] {
				p[j], idx[j] = d, newIdx
				if stds[j] >= ts.FlatStd {
					c[j] = corrFloor(d, w)
				}
			}
		}
		// Every scored position has a finite distance.
		pj := p[j]
		if pj < mn {
			mn, mnJ = pj, j
		}
		if pj > mx {
			mx, mxJ = pj, j
		}
		dot = rollDot(old, lo[j], tOld, hi[j], tNew)
	}
	for j := lim; j < newIdx; j++ {
		old := inc.dots[j]
		inc.dots[j] = dot
		pj := inc.p[j]
		if pj < mn {
			mn, mnJ = pj, j
		}
		if pj > mx && !math.IsInf(pj, 1) {
			mx, mxJ = pj, j
		}
		dot = rollDot(old, t[j], tOld, t[j+w], tNew)
	}
	inc.dots[newIdx] = dot
	if best < mn {
		mnJ = newIdx
	}
	if best > mx && !math.IsInf(best, 1) {
		mxJ = newIdx
	}
	inc.p = append(inc.p, best)
	inc.i = append(inc.i, bestJ)
	inc.c = append(inc.c, cNew)
	inc.motif, inc.discord = mnJ, mxJ
}

// Profile returns the current matrix profile (distances, not squared).
func (inc *Incremental) Profile() *Profile {
	out := &Profile{P: make([]float64, len(inc.p)), I: append([]int(nil), inc.i...), W: inc.w}
	for j, v := range inc.p {
		if math.IsInf(v, 1) {
			out.P[j] = v
		} else {
			out.P[j] = math.Sqrt(v)
		}
	}
	return out
}

// Len returns the current series length.
func (inc *Incremental) Len() int { return len(inc.t) }

// Windows returns the number of profile positions (series windows) so far.
func (inc *Incremental) Windows() int { return len(inc.p) }

// W returns the window length.
func (inc *Incremental) W() int { return inc.w }

// Series returns the accumulated series.  The slice is the live internal
// buffer — callers must treat it as read-only and must not retain it
// across Appends (growth may move it).
func (inc *Incremental) Series() []float64 { return inc.t }

// DistAt returns the profile distance (not squared) at window j.
func (inc *Incremental) DistAt(j int) float64 {
	v := inc.p[j]
	if math.IsInf(v, 1) {
		return v
	}
	return math.Sqrt(v)
}

// MinIndex returns the window with the smallest profile distance — the
// motif — or -1 while no window has a neighbour.  Ties resolve to the
// lowest index.  The append walk keeps it, so this is O(1).
func (inc *Incremental) MinIndex() int { return inc.motif }

// MaxIndex returns the window with the largest finite profile distance —
// the discord — or -1 if no window has a finite distance.  Ties resolve to
// the lowest index.  The append walk keeps it, so this is O(1).
func (inc *Incremental) MaxIndex() int { return inc.discord }

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// growFloats returns s with capacity at least n, preserving contents.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		out := make([]float64, len(s), n)
		copy(out, s)
		return out
	}
	return s
}

// growInts returns s with capacity at least n, preserving contents.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		out := make([]int, len(s), n)
		copy(out, s)
		return out
	}
	return s
}
