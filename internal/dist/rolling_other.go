//go:build !amd64

package dist

// profileAVX is never reached off amd64; it is the Go pass.
func (p *Prepared) profileAVX(q []float64, qq float64, prof []float64) float64 {
	directDots(q, p.t, prof)
	return p.profileFromDots(len(q), qq, prof)
}
