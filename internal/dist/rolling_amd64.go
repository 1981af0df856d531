package dist

import "math"

// avxChunk bounds the multiply-adds of one rollingProfileAVX call.  Assembly
// is never an async preemption point, so a row of a long served series is cut
// into calls of about 2¹⁸ multiply-adds (tens of microseconds) and a GC
// stop-the-world never waits on a whole row.
const avxChunk = 1 << 18

// rollingProfileAVX writes the approximate profile of q over len(out) ≥ 16
// consecutive windows of t into out and returns its minimum, bit-equal to
// directDots followed by profileFromDots on the default GOAMD64=v1 (see
// rolling_amd64.s for the operand order and the size contract).
//
//go:noescape
func rollingProfileAVX(q, t, prefixSq, out []float64, qq float64) float64

// profileAVX is the rolling kernel's profile pass on AVX: it computes the
// sliding dots of q and turns them into ŝ_j in one assembly pass, 16 windows
// at a time, in calls of at most avxChunk multiply-adds (and at least one
// block).  A chunk shorter than a block starts early and overlaps the chunk
// before it, which rewrites the same values.  len(prof) must be at least
// avxBlock.
//
//ips:hotpath
func (p *Prepared) profileAVX(q []float64, qq float64, prof []float64) float64 {
	m, w := len(q), len(prof)
	step := max(avxBlock, avxChunk/m/avxBlock*avxBlock)
	minHat := math.Inf(1)
	for j := 0; j < w; j += step {
		end := min(j+step, w)
		start := min(j, end-avxBlock)
		if v := rollingProfileAVX(q, p.t[start:end+m-1], p.prefixSq[start:end+m], prof[start:end], qq); v < minHat {
			minHat = v
		}
	}
	return minHat
}
