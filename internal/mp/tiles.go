package mp

// Tile sizing.  A fixed tiles-per-worker count over-cuts small joins
// (dealing and context checks dominate) and under-cuts large ones (a single
// slow tile serialises the tail).  Instead each tile covers roughly
// cellsPerTile matrix cells, so tiles-per-worker grows with the join until
// the clamp: enough slack for the dynamic scheduler to absorb uneven
// diagonals without shrinking tiles into scheduling noise.  The rule is a pure function of the
// join shape, so a given join tiles identically on every run.
//
// Tiling is pure scheduling: every cell distance is bitwise reproducible and
// the merge order (not the tile schedule) defines the result, so the profile
// stays byte-identical for any tile size and worker count.
const (
	// cellsPerTile is the walk one tile should cost: about 11µs at the
	// 0.7ns/cell the AVX lockstep walk measures on a 2-CPU x86-64 host
	// (BenchmarkSelfJoin N=16384, w=64, one worker, best of three), about
	// 43µs at the Go walk's 2.6ns/cell.  Large enough that dealing a tile
	// from the pool (an atomic add and a context check, see par.Run) is
	// noise, small enough that the scheduler can rebalance a slow worker
	// several times per join.
	cellsPerTile = 1 << 14
	// minTilesPerWorker/maxTilesPerWorker clamp the rule: at least two
	// tiles per worker so dynamic scheduling has something to rebalance, at
	// most 32 so tiny tiles never drown the walk in per-tile dealing.
	minTilesPerWorker = 2
	maxTilesPerWorker = 32
)

// diagCells returns the cell count of self-join diagonals [lo, hi) of an
// n×n upper triangle: sum over k of (n − k).
func diagCells(lo, hi int) int {
	a, b := hi-lo, hi-lo+1 // consecutive, so one of them is even
	return a * b / 2
}

// tilesPerWorker returns the tiles-per-worker count for a join of cells
// matrix cells on the given worker count.
func tilesPerWorker(workers, cells int) int {
	if workers <= 1 {
		return 1
	}
	return min(max(cells/(workers*cellsPerTile), minTilesPerWorker), maxTilesPerWorker)
}
