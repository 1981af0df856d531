// Package maporder is ipslint test corpus: map iteration order reaching
// ordered sinks (output, JSON, obs attributes, unsorted appends).
package maporder

import (
	"encoding/json"
	"fmt"
	"sort"
)

type span struct{ attrs []string }

func (s *span) SetAttr(k, v string) { s.attrs = append(s.attrs, k+"="+v) }

func printDirect(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "fmt.Printf inside map iteration" // want "fmt.Printf in library code"
	}
}

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside map iteration without a later sort"
	}
	return keys
}

func attrsFromMap(sp *span, m map[string]string) {
	for k, v := range m {
		sp.SetAttr(k, v) // want "SetAttr inside map iteration"
	}
}

func encodeEach(m map[string]int) ([][]byte, error) {
	var out [][]byte
	for k := range m {
		b, err := json.Marshal(k) // want "json.Marshal inside map iteration"
		if err != nil {
			return nil, err
		}
		out = append(out, b) // want "append to out inside map iteration without a later sort"
	}
	return out, nil
}

// The blessed idiom — collect keys, sort, then iterate — is exempt.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Map-to-map accumulation carries no order.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Commutative reduction carries no order.
func total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// Ranging over a slice may append and print freely.
func printSlice(xs []string) {
	var seen []string
	for _, x := range xs {
		fmt.Println(x) // want "fmt.Println in library code"
		seen = append(seen, x)
	}
	_ = seen
}

// Float accumulation in map order: addition is not associative, so the
// result's low bits follow the iteration order.  This is the shape of a
// Gini impurity over a class-count map.
func giniOverMap(counts map[int]int, total int) float64 {
	g := 1.0
	for _, n := range counts {
		p := float64(n) / float64(total)
		g -= p * p // want "floating-point accumulation into g inside map iteration"
	}
	return g
}

// The shape of an ANOVA F statistic over per-class groups: both sums of
// squares accumulate across classes, while the per-class mean is declared
// inside the loop and starts afresh each iteration.
func fStatOverMap(groups map[int][]float64, grand float64) (ssBetween, ssWithin float64) {
	for _, g := range groups {
		var mean float64
		for _, d := range g {
			mean += d
		}
		mean /= float64(len(g))
		diff := mean - grand
		ssBetween += float64(len(g)) * diff * diff // want "floating-point accumulation into ssBetween inside map iteration"
		for _, d := range g {
			dd := d - mean
			ssWithin += dd * dd // want "floating-point accumulation into ssWithin inside map iteration"
		}
	}
	return ssBetween, ssWithin
}

type stats struct{ sum, prod float64 }

// Plain assignment that folds the accumulator back in, and accumulation
// into a field, are the same fault.
func spelledOut(m map[string]float64, st *stats) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v               // want "floating-point accumulation into sum inside map iteration"
		st.prod *= v                // want "floating-point accumulation into st.prod inside map iteration"
		st.sum = 0.5 * (st.sum + v) // want "floating-point accumulation into st.sum inside map iteration"
	}
	return sum
}

// Accumulating into a slot indexed by the map key touches each slot once,
// so no order reaches the result; any other index can collect several
// iterations in one slot.
func perKey(m map[int]float64, scale map[int]float64, byParity []float64) {
	for k, v := range m {
		scale[k] *= v
		byParity[k%2] += v // want "floating-point accumulation into byParity.k % 2. inside map iteration"
	}
}

// Summing over sorted keys is the fix.
func sumSorted(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}
