//go:build !amd64

package mp

// lockstepAVX is never reached off amd64; it is the Go walk.
func (wk *selfJoinWalker) lockstepAVX(pt *partial, k, end int, d *[4]float64) {
	*d = wk.lockstep(pt, k, end, *d)
}
