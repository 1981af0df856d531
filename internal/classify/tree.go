package classify

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// TreeConfig parameterises decision-tree training.
type TreeConfig struct {
	// MaxDepth bounds the tree depth (default 16).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
}

func (c TreeConfig) defaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 16
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	return c
}

// treeNode is one node of a CART tree.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	label     int // leaf prediction when left == nil
}

// Tree is a CART decision tree with Gini-impurity splits, the base learner
// of the Rotation Forest baseline.
type Tree struct {
	root *treeNode
}

// TrainTree fits a CART tree on features X with labels y.
func TrainTree(X [][]float64, y []int, cfg TreeConfig) (*Tree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("classify: bad training shape")
	}
	cfg = cfg.defaults()
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	// Dense class indices in ascending label order: the tree counts classes
	// in slices and sums impurities in class order.
	labels := append([]int(nil), y...)
	sort.Ints(labels)
	labels = slices.Compact(labels)
	cls := make([]int, len(y))
	for i, label := range y {
		cls[i], _ = slices.BinarySearch(labels, label)
	}
	return &Tree{root: growTree(X, cls, labels, idx, cfg, 0)}, nil
}

// majority returns the most frequent label among rows idx, the smallest
// such label on a tie.
func majority(cls, labels, idx []int) int {
	counts := make([]int, len(labels))
	for _, i := range idx {
		counts[cls[i]]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return labels[best]
}

// gini is the Gini impurity of a node with the given per-class counts.  It
// sums in class order, so equal counts always give equal bits.
func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, n := range counts {
		p := float64(n) / float64(total)
		g -= p * p
	}
	return g
}

// growTree grows the subtree over rows idx; row i has label
// labels[cls[i]].
func growTree(X [][]float64, cls, labels, idx []int, cfg TreeConfig, depth int) *treeNode {
	// Pure node or depth/size limits reached → leaf.
	pure := true
	for _, i := range idx[1:] {
		if cls[i] != cls[idx[0]] {
			pure = false
			break
		}
	}
	if pure || depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return &treeNode{label: majority(cls, labels, idx)}
	}

	nFeatures := len(X[idx[0]])
	bestFeature, bestThreshold := -1, 0.0
	bestScore := math.Inf(1)
	order := make([]int, len(idx))
	leftCounts, rightCounts := make([]int, len(labels)), make([]int, len(labels))
	for f := 0; f < nFeatures; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		clear(leftCounts)
		clear(rightCounts)
		for _, i := range order {
			rightCounts[cls[i]]++
		}
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos]
			leftCounts[cls[i]]++
			rightCounts[cls[i]]--
			//lint:ignore ipslint/floateq adjacent sorted values: exact tie detection is the split-point definition
			if X[order[pos+1]][f] == X[i][f] {
				continue // split must separate distinct values
			}
			nl, nr := pos+1, len(order)-pos-1
			if nl < cfg.MinLeaf || nr < cfg.MinLeaf {
				continue
			}
			score := (float64(nl)*gini(leftCounts, nl) + float64(nr)*gini(rightCounts, nr)) / float64(len(order))
			if score < bestScore {
				bestScore = score
				bestFeature = f
				bestThreshold = (X[i][f] + X[order[pos+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &treeNode{label: majority(cls, labels, idx)}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &treeNode{label: majority(cls, labels, idx)}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      growTree(X, cls, labels, leftIdx, cfg, depth+1),
		right:     growTree(X, cls, labels, rightIdx, cfg, depth+1),
	}
}

// Predict returns the tree's label for x.
func (t *Tree) Predict(x []float64) int {
	node := t.root
	for node.left != nil {
		if x[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.label
}

// PredictAll classifies every row of X.
func (t *Tree) PredictAll(X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = t.Predict(x)
	}
	return out
}

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.left == nil {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if r > l {
			l = r
		}
		return 1 + l
	}
	return walk(t.root)
}
