package baselines

import (
	"context"
	"math/rand"

	"ips/internal/classify"
	"ips/internal/dist"
	"ips/internal/ts"
)

// SDTreeConfig parameterises the original shapelet decision tree of Ye &
// Keogh (KDD'09) — the method that introduced shapelets.  Every node of the
// tree searches candidate subsequences for the one whose distance threshold
// maximises information gain, then routes instances by that threshold.  The
// exhaustive search is O(M²N³); CandidatesPerNode subsamples the candidate
// space to keep the baseline tractable, as later work (and our harness) do.
type SDTreeConfig struct {
	// LengthRatios are candidate lengths as fractions of the series length.
	LengthRatios []float64
	MinLength    int
	// CandidatesPerNode bounds the subsequences scored per node
	// (default 200; 0 subsamples nothing only when the space is smaller).
	CandidatesPerNode int
	// MaxDepth bounds the tree depth (default 8).
	MaxDepth int
	// MinLeaf stops splitting below this node size (default 2).
	MinLeaf int
	Seed    int64
}

func (c SDTreeConfig) defaults() SDTreeConfig {
	if len(c.LengthRatios) == 0 {
		c.LengthRatios = []float64{0.1, 0.2, 0.3}
	}
	if c.MinLength <= 0 {
		c.MinLength = 4
	}
	if c.CandidatesPerNode <= 0 {
		c.CandidatesPerNode = 200
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	return c
}

// sdNode is one node of the shapelet decision tree.
type sdNode struct {
	shapelet  ts.Series
	threshold float64
	left      *sdNode // dist <= threshold
	right     *sdNode
	label     int // leaf prediction when left == nil
}

// SDTree is a trained shapelet decision tree.
type SDTree struct {
	root *sdNode
}

// SDTreeTrainCtx builds the shapelet decision tree on the training set.
// Cancellation is checked per node inside the batched distance engine; a
// cancelled run returns a nil tree with an error matching errs.ErrCanceled.
func SDTreeTrainCtx(ctx context.Context, train *ts.Dataset, cfg SDTreeConfig) (*SDTree, error) {
	cfg = cfg.defaults()
	if err := train.Validate(true); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	// Prepare every instance once for the whole tree: child nodes revisit
	// the same instances, so each series' prefix statistics are built once.
	root, err := growSDNode(ctx, train, prepareAll(train), idx, cfg, rng, 0)
	if err != nil {
		return nil, err
	}
	return &SDTree{root: root}, nil
}

// growSDNode recursively builds one node over the instances in idx.
func growSDNode(ctx context.Context, train *ts.Dataset, prepared []*dist.Prepared, idx []int, cfg SDTreeConfig, rng *rand.Rand, depth int) (*sdNode, error) {
	labels := train.Labels()
	pure := true
	for _, i := range idx[1:] {
		if labels[i] != labels[idx[0]] {
			pure = false
			break
		}
	}
	if pure || depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return &sdNode{label: majorityOf(labels, idx)}, nil
	}

	// Candidate shapelets: random subsequences drawn from the node's
	// instances at the configured lengths.
	n := train.SeriesLen()
	type candidate struct {
		values ts.Series
	}
	var cands []candidate
	for _, ratio := range cfg.LengthRatios {
		L := int(ratio * float64(n))
		if L < cfg.MinLength {
			L = cfg.MinLength
		}
		if L > n {
			L = n
		}
		perLength := cfg.CandidatesPerNode / len(cfg.LengthRatios)
		if perLength < 1 {
			perLength = 1
		}
		for c := 0; c < perLength; c++ {
			src := train.Instances[idx[rng.Intn(len(idx))]]
			at := rng.Intn(len(src.Values) - L + 1)
			cands = append(cands, candidate{values: src.Values[at : at+L]})
		}
	}

	// Score every candidate: best information-gain split over the node's
	// distance distribution.  The node's own dominant class defines the
	// binary "target vs rest" framing, as in the original method's
	// entropy computation over the node's class mix.
	nodeLabels := make([]int, len(idx))
	for pos, i := range idx {
		nodeLabels[pos] = labels[i]
	}
	target := majorityOf(labels, idx)
	queries := make([][]float64, len(cands))
	for ci, cand := range cands {
		queries[ci] = cand.values
	}
	D, err := distMatrix(ctx, prepared, idx, queries)
	if err != nil {
		return nil, err
	}
	bestGain := 0.0
	var bestShapelet ts.Series
	bestThreshold := 0.0
	var bestDists []float64
	for ci, cand := range cands {
		gain, split := bestInfoGainSplit(D[ci], nodeLabels, target)
		if gain > bestGain {
			bestGain = gain
			bestShapelet = cand.values
			bestThreshold = split
			bestDists = D[ci]
		}
	}
	if bestShapelet == nil {
		return &sdNode{label: majorityOf(labels, idx)}, nil
	}
	// Route on the winning candidate's distance row — the values ts.Dist
	// would recompute per instance, already in hand.
	var leftIdx, rightIdx []int
	for pos, i := range idx {
		if bestDists[pos] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) < cfg.MinLeaf || len(rightIdx) < cfg.MinLeaf {
		return &sdNode{label: majorityOf(labels, idx)}, nil
	}
	left, err := growSDNode(ctx, train, prepared, leftIdx, cfg, rng, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := growSDNode(ctx, train, prepared, rightIdx, cfg, rng, depth+1)
	if err != nil {
		return nil, err
	}
	return &sdNode{
		shapelet:  bestShapelet.Clone(),
		threshold: bestThreshold,
		left:      left,
		right:     right,
	}, nil
}

func majorityOf(labels []int, idx []int) int {
	counts := map[int]int{}
	for _, i := range idx {
		counts[labels[i]]++
	}
	best, bestN := 0, -1
	for label, n := range counts {
		if n > bestN || (n == bestN && label < best) {
			best, bestN = label, n
		}
	}
	return best
}

// Predict routes an instance down the tree.
func (t *SDTree) Predict(x ts.Series) int {
	node := t.root
	for node.left != nil {
		if ts.Dist(node.shapelet, x) <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.label
}

// PredictAll classifies every instance of the dataset.
func (t *SDTree) PredictAll(d *ts.Dataset) []int {
	out := make([]int, d.Len())
	for i, in := range d.Instances {
		out[i] = t.Predict(in.Values)
	}
	return out
}

// Shapelets returns the shapelets used at the tree's internal nodes, in
// breadth-first order.
func (t *SDTree) Shapelets() []ts.Series {
	var out []ts.Series
	queue := []*sdNode{t.root}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if node == nil || node.left == nil {
			continue
		}
		out = append(out, node.shapelet)
		queue = append(queue, node.left, node.right)
	}
	return out
}

// SDTreeEvaluateCtx trains the shapelet decision tree and returns its test
// accuracy, with cooperative cancellation during training.
func SDTreeEvaluateCtx(ctx context.Context, train, test *ts.Dataset, cfg SDTreeConfig) (float64, error) {
	t, err := SDTreeTrainCtx(ctx, train, cfg)
	if err != nil {
		return 0, err
	}
	return classify.Accuracy(t.PredictAll(test), test.Labels()), nil
}
