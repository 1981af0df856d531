//go:build !amd64

package dist

// avx is false off amd64: the rolling kernel always runs the Go pass.
const avx = false

// profileAVX is never reached off amd64; it is the Go pass.
func (p *Prepared) profileAVX(q []float64, qq float64, prof []float64) float64 {
	directDots(q, p.t, prof)
	return p.profileFromDots(len(q), qq, prof)
}
