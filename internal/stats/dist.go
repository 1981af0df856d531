package stats

import (
	"math"
)

// Distribution is a univariate continuous distribution fitted to data.
type Distribution interface {
	Name() string
	PDF(x float64) float64
	CDF(x float64) float64
	Mean() float64
	Std() float64
}

// Moments returns the mean, standard deviation, and (sample) skewness of xs.
func Moments(xs []float64) (mean, std, skew float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= n
	var m2, m3 float64
	for _, v := range xs {
		d := v - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	std = math.Sqrt(m2)
	if std > 0 {
		skew = m3 / (std * std * std)
	}
	return mean, std, skew
}

// Normal is the normal distribution N(mu, sigma²).
type Normal struct{ Mu, Sigma float64 }

// FitNormal fits a normal distribution by moments.
func FitNormal(xs []float64) Normal {
	m, s, _ := Moments(xs)
	if s == 0 {
		s = 1e-9
	}
	return Normal{Mu: m, Sigma: s}
}

func (d Normal) Name() string { return "Norm" }
func (d Normal) PDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return math.Exp(-0.5*z*z) / (d.Sigma * math.Sqrt(2*math.Pi))
}
func (d Normal) CDF(x float64) float64 { return NormalCDF((x - d.Mu) / d.Sigma) }
func (d Normal) Mean() float64         { return d.Mu }
func (d Normal) Std() float64          { return d.Sigma }

// Gamma is a three-parameter (shifted) gamma distribution with shape K,
// scale Theta, and location Loc.  Flip=true mirrors the distribution around
// Loc to model negatively skewed data.
type Gamma struct {
	K, Theta, Loc float64
	Flip          bool
}

// FitGamma fits a shifted gamma by matching mean, variance, and skewness:
// k = 4/γ², θ = σ·|γ|/2, loc = μ − kθ (mirrored when γ < 0).  Near-zero skew
// degenerates toward a normal; we floor |γ| to keep the fit finite.
func FitGamma(xs []float64) Gamma {
	m, s, g := Moments(xs)
	if s == 0 {
		s = 1e-9
	}
	flip := g < 0
	ag := math.Abs(g)
	if ag < 0.05 {
		ag = 0.05
	}
	k := 4 / (ag * ag)
	theta := s * ag / 2
	loc := m - k*theta
	if flip {
		loc = -m - k*theta // fit on the mirrored data −x
	}
	return Gamma{K: k, Theta: theta, Loc: loc, Flip: flip}
}

func (d Gamma) Name() string { return "Gamma" }
func (d Gamma) PDF(x float64) float64 {
	if d.Flip {
		x = -x
	}
	t := (x - d.Loc) / d.Theta
	if t <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(d.K)
	return math.Exp((d.K-1)*math.Log(t)-t-lg) / d.Theta
}
func (d Gamma) CDF(x float64) float64 {
	if d.Flip {
		// P(X <= x) = P(−X >= −x) = 1 − F_mirror(−x)
		t := (-x - d.Loc) / d.Theta
		if t <= 0 {
			return 1
		}
		return 1 - RegularizedGammaP(d.K, t)
	}
	t := (x - d.Loc) / d.Theta
	if t <= 0 {
		return 0
	}
	return RegularizedGammaP(d.K, t)
}
func (d Gamma) Mean() float64 {
	m := d.Loc + d.K*d.Theta
	if d.Flip {
		return -m
	}
	return m
}
func (d Gamma) Std() float64 { return math.Sqrt(d.K) * d.Theta }
