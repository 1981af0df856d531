package mp

import (
	"math"
	"sync"
)

// partial is one worker's private view of the profile while a tiled join is
// in flight: squared nearest-neighbour distances and neighbour indices,
// initialised to (+Inf, −1), and the self-join's correlation floors
// (see corrFloor), initialised to −Inf.  Partials come from a package-level
// arena so repeated joins — and concurrent joins from different goroutines —
// reuse buffers instead of re-allocating O(N) per worker per call.
type partial struct {
	p []float64
	i []int
	c []float64
}

// update offers (d, idx) as position pos's nearest neighbour and reports
// whether it was taken.  The comparison is the kernel's deterministic total
// order: strictly smaller distance wins, and an exact tie goes to the lower
// neighbour index, so the result is independent of the order in which
// diagonals are walked.
func (pt *partial) update(pos int, d float64, idx int) bool {
	//lint:ignore ipslint/floateq cell distances are bitwise reproducible across workers, so an exact tie means the same value reached via two neighbours; the lower index wins by definition
	if d < pt.p[pos] || (d == pt.p[pos] && idx < pt.i[pos] && pt.i[pos] >= 0) {
		pt.p[pos] = d
		pt.i[pos] = idx
		return true
	}
	return false
}

// partialArena recycles partial buffers across joins.  sync.Pool is already
// safe for concurrent Get/Put; the race test in race_test.go exercises
// several simultaneous joins sharing this arena under -race.
var partialArena = sync.Pool{New: func() any { return new(partial) }}

// getPartial returns a length-n partial with every slot reset to (+Inf, −1)
// and every floor to −Inf.
func getPartial(n int) *partial {
	pt := partialArena.Get().(*partial)
	if cap(pt.p) < n {
		pt.p = make([]float64, n)
		pt.i = make([]int, n)
		pt.c = make([]float64, n)
	} else {
		pt.p = pt.p[:n]
		pt.i = pt.i[:n]
		pt.c = pt.c[:n]
	}
	inf := math.Inf(1)
	for x := range pt.p {
		pt.p[x] = inf
		pt.i[x] = -1
		pt.c[x] = -inf
	}
	return pt
}

// putPartial returns a partial to the arena.  The buffer contents are left
// as-is; getPartial re-initialises on the way out.
func putPartial(pt *partial) { partialArena.Put(pt) }
