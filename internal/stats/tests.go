package stats

import (
	"errors"
	"math"
	"sort"
)

// Ranks assigns ranks 1..k to xs with rank 1 for the LARGEST value (the
// convention for accuracy comparisons: best method gets rank 1).  Ties
// receive the average of the ranks they span.
func Ranks(xs []float64) []float64 {
	k := len(xs)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	ranks := make([]float64, k)
	for i := 0; i < k; {
		j := i
		//lint:ignore ipslint/floateq rank ties are defined by exact equality of the sorted values
		for j+1 < k && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for l := i; l <= j; l++ {
			ranks[idx[l]] = avg
		}
		i = j + 1
	}
	return ranks
}

// FriedmanResult holds the outcome of the Friedman test over N datasets and
// k methods.
type FriedmanResult struct {
	Stat     float64   // chi-square statistic
	PValue   float64   // from chi-square with k-1 df
	AvgRanks []float64 // average rank per method (rank 1 = best)
}

// Friedman runs the Friedman test on an N×k matrix of scores (scores[i][j] is
// method j's score — e.g. accuracy — on dataset i; higher is better).
func Friedman(scores [][]float64) (*FriedmanResult, error) {
	n := len(scores)
	if n == 0 {
		return nil, errors.New("stats: no datasets")
	}
	k := len(scores[0])
	if k < 2 {
		return nil, errors.New("stats: need at least two methods")
	}
	sums := make([]float64, k)
	for _, row := range scores {
		if len(row) != k {
			return nil, errors.New("stats: ragged score matrix")
		}
		for j, r := range Ranks(row) {
			sums[j] += r
		}
	}
	avg := make([]float64, k)
	var sq float64
	for j, s := range sums {
		avg[j] = s / float64(n)
		sq += s * s
	}
	fn, fk := float64(n), float64(k)
	stat := 12/(fn*fk*(fk+1))*sq - 3*fn*(fk+1)
	p := 1 - ChiSquareCDF(stat, k-1)
	return &FriedmanResult{Stat: stat, PValue: p, AvgRanks: avg}, nil
}

// WilcoxonSignedRank runs the two-sided Wilcoxon signed-rank test on paired
// samples a and b, using the normal approximation with tie and
// continuity corrections.  Zero differences are dropped (Wilcoxon's rule).
// It returns the W statistic and two-sided p-value; an all-zero difference
// vector yields p = 1.
func WilcoxonSignedRank(a, b []float64) (w, p float64, err error) {
	if len(a) != len(b) {
		return 0, 0, errors.New("stats: paired samples have different lengths")
	}
	type dr struct {
		abs  float64
		sign float64
	}
	diffs := make([]dr, 0, len(a))
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue
		}
		s := 1.0
		if d < 0 {
			s = -1
		}
		diffs = append(diffs, dr{abs: math.Abs(d), sign: s})
	}
	n := len(diffs)
	if n == 0 {
		return 0, 1, nil
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].abs < diffs[j].abs })
	// Average ranks for ties; accumulate the tie correction term.
	var wPlus, wMinus, tieCorr float64
	for i := 0; i < n; {
		j := i
		//lint:ignore ipslint/floateq rank ties are defined by exact equality of the sorted values
		for j+1 < n && diffs[j+1].abs == diffs[i].abs {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		tlen := float64(j - i + 1)
		tieCorr += tlen*tlen*tlen - tlen
		for l := i; l <= j; l++ {
			if diffs[l].sign > 0 {
				wPlus += avg
			} else {
				wMinus += avg
			}
		}
		i = j + 1
	}
	w = math.Min(wPlus, wMinus)
	fn := float64(n)
	mean := fn * (fn + 1) / 4
	variance := fn*(fn+1)*(2*fn+1)/24 - tieCorr/48
	if variance <= 0 {
		return w, 1, nil
	}
	z := (w - mean + 0.5) / math.Sqrt(variance) // continuity correction
	p = 2 * NormalCDF(z)
	if p > 1 {
		p = 1
	}
	return w, p, nil
}

// HolmCorrection applies Holm's step-down procedure at level alpha to the
// given p-values and returns reject[i]==true when hypothesis i is rejected.
func HolmCorrection(pvalues []float64, alpha float64) []bool {
	m := len(pvalues)
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pvalues[idx[a]] < pvalues[idx[b]] })
	reject := make([]bool, m)
	for rank, i := range idx {
		if pvalues[i] <= alpha/float64(m-rank) {
			reject[i] = true
		} else {
			break // step-down stops at the first acceptance
		}
	}
	return reject
}

// nemenyiQ05 holds the critical values q_0.05 of the studentized range
// statistic divided by √2, indexed by the number of methods k (2..20).
var nemenyiQ05 = map[int]float64{
	2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031,
	9: 3.102, 10: 3.164, 11: 3.219, 12: 3.268, 13: 3.313, 14: 3.354,
	15: 3.391, 16: 3.426, 17: 3.458, 18: 3.489, 19: 3.517, 20: 3.544,
}

// NemenyiCD returns the critical difference of average ranks at α = 0.05 for
// k methods over n datasets: CD = q_α √(k(k+1)/(6n)).  Demšar 2006, the
// procedure behind Fig. 11's diagram.
func NemenyiCD(k, n int) (float64, error) {
	q, ok := nemenyiQ05[k]
	if !ok {
		return 0, errors.New("stats: Nemenyi critical value available for 2..20 methods only")
	}
	return q * math.Sqrt(float64(k*(k+1))/(6*float64(n))), nil
}
