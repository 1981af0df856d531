package mp

// lockstepRowsAVX walks rows i..stop−1 of diagonals k..k+3 as lockstep does,
// four lanes per YMM register, and stops at the first row where the floor
// test and the valid mask keep a lane.  On entry d holds the dots of row
// i−1, or the seeds when i is 0; on return it holds the dots of row, the last
// row walked, and keep has bit l set for each lane l that row sends to the
// exact step (0 when the walk reached stop).  fw is float64(w).  The caller
// guarantees i < stop ≤ n−k−3 and a valid of n entries or nil, so every
// element read is in range.  See stomp_amd64.s for the operand order.
//
//go:noescape
func lockstepRowsAVX(t, means, stds, c []float64, valid []bool, d *[4]float64, w int, fw float64, k, i, stop int) (row, keep int)

// lockstepAVX is lockstep on AVX: rows 0..end−1 of diagonals k..k+3 in
// calls of at most lockstepRows rows, each returning at a row with a kept
// lane, whose exact steps run here in lane order.  Every lane of a row reads
// the floors as they were before that row's exact steps; lockstep's comment
// shows that a lower floor only sends more cells to the exact step, so the
// two walks leave the same partial.  d goes in as the seeds and comes back
// as the dots of row end−1.
//
//ips:hotpath
func (wk *selfJoinWalker) lockstepAVX(pt *partial, k, end int, d *[4]float64) {
	fw := float64(wk.w)
	for i := 0; i < end; {
		row, keep := lockstepRowsAVX(wk.t, wk.means, wk.stds, pt.c, wk.valid, d, wk.w, fw, k, i, min(i+lockstepRows, end))
		for l := range 4 {
			if keep>>l&1 != 0 {
				wk.exact(pt, row, k+row+l, d[l])
			}
		}
		i = row + 1
	}
}
