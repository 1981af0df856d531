// Package ts provides the time-series substrate used by every other package
// in this repository: series and dataset types, z-normalisation, the
// sliding-window distance of Def. 4 of the IPS paper, subsequence utilities,
// and dynamic time warping.
package ts

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Series is an ordered sequence of real values (Def. 1).
type Series []float64

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Subsequence returns the subsequence s[a:b] (half-open, 0-based), i.e. the
// paper's T_{a+1,b} in 1-based inclusive notation (Def. 3).  The returned
// slice aliases the original storage.
func (s Series) Subsequence(a, b int) Series {
	return s[a:b]
}

// Instance is a labelled time series belonging to a dataset.
type Instance struct {
	Values Series
	Label  int
}

// Dataset is a set of labelled time series (Def. 2).
type Dataset struct {
	Name      string
	Instances []Instance
}

// Len returns the number of instances in the dataset.
func (d *Dataset) Len() int { return len(d.Instances) }

// SeriesLen returns the length of the first instance, or 0 for an empty
// dataset.  UCR-style datasets are equal-length; variable-length datasets
// should be inspected per instance.
func (d *Dataset) SeriesLen() int {
	if len(d.Instances) == 0 {
		return 0
	}
	return len(d.Instances[0].Values)
}

// Classes returns the sorted distinct class labels present in the dataset.
func (d *Dataset) Classes() []int {
	seen := map[int]bool{}
	for _, in := range d.Instances {
		seen[in.Label] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// ByClass partitions the dataset's instances by class label.  The returned
// slices alias the dataset's storage.
func (d *Dataset) ByClass() map[int][]Instance {
	out := map[int][]Instance{}
	for _, in := range d.Instances {
		out[in.Label] = append(out[in.Label], in)
	}
	return out
}

// Labels returns the label of every instance, in dataset order.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Instances))
	for i, in := range d.Instances {
		out[i] = in.Label
	}
	return out
}

// Validate checks structural invariants: at least one instance, no empty or
// non-finite series, and at least two classes when requireTwoClasses is set.
func (d *Dataset) Validate(requireTwoClasses bool) error {
	if len(d.Instances) == 0 {
		return errors.New("ts: dataset has no instances")
	}
	for i, in := range d.Instances {
		if len(in.Values) == 0 {
			return fmt.Errorf("ts: instance %d is empty", i)
		}
		for j, v := range in.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ts: instance %d has non-finite value at %d", i, j)
			}
		}
	}
	if requireTwoClasses && len(d.Classes()) < 2 {
		return errors.New("ts: dataset has fewer than two classes")
	}
	return nil
}

// ConcatenateInstances joins the values of the given instances into one long
// series and returns, alongside it, the start offset of each instance.  The
// offsets let callers mask out subsequences that would span an instance
// boundary (Def. 8 requires instance-profile subsequences to come from a
// single instance).
func ConcatenateInstances(ins []Instance) (Series, []int) {
	total := 0
	for _, in := range ins {
		total += len(in.Values)
	}
	out := make(Series, 0, total)
	starts := make([]int, len(ins))
	for i, in := range ins {
		starts[i] = len(out)
		out = append(out, in.Values...)
	}
	return out, starts
}

// BoundaryMask returns valid[i]==true iff the length-w subsequence starting
// at i lies entirely inside one of the concatenated instances whose start
// offsets are given (total is the concatenated length).
func BoundaryMask(starts []int, total, w int) []bool {
	n := total - w + 1
	if n <= 0 {
		return nil
	}
	valid := make([]bool, n)
	for k, s := range starts {
		end := total
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		for i := s; i+w <= end && i < n; i++ {
			valid[i] = true
		}
	}
	return valid
}

// Sample returns q instances drawn uniformly without replacement from ins
// using rng.  If q >= len(ins) a shuffled copy of all instances is returned.
func Sample(ins []Instance, q int, rng *rand.Rand) []Instance {
	idx := rng.Perm(len(ins))
	if q > len(ins) {
		q = len(ins)
	}
	out := make([]Instance, q)
	for i := 0; i < q; i++ {
		out[i] = ins[idx[i]]
	}
	return out
}
