// Package stats provides the statistical substrate of the reproduction:
// histograms, method-of-moments Normal and Gamma fits with the NMSE score
// the DABF picks between them by (Table III / Formula 10 of the IPS paper),
// the 3σ/Chebyshev rule
// used by the DABF (Formula 11), and the Friedman and Wilcoxon-Holm tests
// behind the critical-difference diagram (Fig. 11).
package stats

import (
	"math"
)

// RegularizedGammaP computes P(a,x), the regularised lower incomplete gamma
// function, via the series expansion for x < a+1 and the continued fraction
// for x >= a+1 (Numerical Recipes style).  Domain: a > 0, x >= 0.
func RegularizedGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

func gammaSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareCDF returns P(X <= x) for a chi-square distribution with df
// degrees of freedom.
func ChiSquareCDF(x float64, df int) float64 {
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(float64(df)/2, x/2)
}

// NormalCDF returns P(X <= x) for the standard normal distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// ChebyshevBound returns the Chebyshev guarantee 1 − 1/z² for z standard
// deviations (Formula 11); e.g. z=3 gives ≈0.8889.
func ChebyshevBound(z float64) float64 {
	if z <= 0 {
		return 0
	}
	return 1 - 1/(z*z)
}
