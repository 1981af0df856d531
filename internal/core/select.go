package core

import (
	"container/heap"
	"context"
	"sort"
	"strconv"

	"ips/internal/classify"
	"ips/internal/dabf"
	"ips/internal/errs"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ts"
)

// scoredCandidate pairs a motif candidate with its Alg. 4 score.
type scoredCandidate struct {
	cand  ip.Candidate
	score float64
}

// candidateHeap is the priority queue Q of Algorithm 4 (min-heap on score;
// smaller score = better shapelet).
type candidateHeap []scoredCandidate

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].score < h[j].score }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(scoredCandidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// SelectionConfig controls top-k selection (Algorithm 4).
type SelectionConfig struct {
	K     int  // shapelets per class (paper default 5)
	UseDT bool // distribution transformation (Formula 15/16)
	UseCR bool // computation reuse
	// Span, when non-nil, receives per-class sub-spans with per-utility
	// timing and distance-evaluation counters.
	Span *obs.Span
}

// diversityTau rejects a polled candidate whose Def. 4 distance to an
// already selected shapelet of the same class is below this fraction of the
// candidate's variance (near-duplicates).  Addresses the paper's 2nd issue
// (§II-B): similar subsequences as shapelets.
const diversityTau = 0.01

// SelectTopK runs Algorithm 4: scores every motif candidate of every class
// with the three utilities and polls the k best per class.  d may be nil
// only when UseDT is false.  The context is checked between utility blocks
// and every few candidate rows inside them; a cancelled selection returns
// nil shapelets and an error matching errs.ErrCanceled.
func SelectTopK(ctx context.Context, pool *ip.Pool, train *ts.Dataset, d *dabf.DABF, cfg SelectionConfig) ([]classify.Shapelet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.K <= 0 {
		cfg.K = 5
	}
	if pool == nil || train == nil {
		return nil, errs.BadInput(errs.StageSelection, "select", "", "nil pool or dataset")
	}
	byClass := train.ByClass()
	classes := make([]int, 0, len(pool.ByClass))
	for c := range pool.ByClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)

	var out []classify.Shapelet
	for _, class := range classes {
		motifs := pool.Motifs(class)
		if len(motifs) == 0 {
			continue
		}
		csp := cfg.Span.Child("class-" + strconv.Itoa(class))
		var others []ip.Candidate
		for _, oc := range classes {
			if oc != class {
				others = append(others, pool.ByClass[oc]...)
			}
		}
		instances := byClass[class]

		var u *utilities
		var uerr error
		if cfg.UseDT && d != nil {
			if cf := d.PerClass[class]; cf != nil {
				u, uerr = dtUtilities(ctx, motifs, others, instances, cf, d.Cfg.Dim, cfg.UseCR, csp)
			}
		}
		if u == nil && uerr == nil {
			u, uerr = rawUtilities(ctx, motifs, others, instances, cfg.UseCR, csp)
		}
		if uerr != nil {
			csp.End()
			return nil, uerr
		}
		scores := u.scores()

		q := make(candidateHeap, 0, len(motifs))
		for i, m := range motifs {
			q = append(q, scoredCandidate{cand: m, score: scores[i]})
		}
		heap.Init(&q)
		var picked []classify.Shapelet
		var skipped []scoredCandidate
		for len(picked) < cfg.K && q.Len() > 0 {
			sc := heap.Pop(&q).(scoredCandidate)
			if isNearDuplicate(sc.cand.Values, picked) {
				skipped = append(skipped, sc)
				continue
			}
			picked = append(picked, classify.Shapelet{
				Class:  class,
				Values: sc.cand.Values,
				Score:  -sc.score, // expose "higher is better"
			})
		}
		// If diversity filtering starved the class, refill from the best
		// skipped candidates.
		for i := 0; len(picked) < cfg.K && i < len(skipped); i++ {
			picked = append(picked, classify.Shapelet{
				Class:  class,
				Values: skipped[i].cand.Values,
				Score:  -skipped[i].score,
			})
		}
		out = append(out, picked...)
		csp.SetInt("motifs", int64(len(motifs)))
		csp.SetInt("picked", int64(len(picked)))
		csp.End()
	}
	return out, nil
}

// isNearDuplicate reports whether the candidate is, under the Def. 4
// distance, within diversityTau·variance of an already selected shapelet of
// the same class.
func isNearDuplicate(values ts.Series, picked []classify.Shapelet) bool {
	_, std := ts.MeanStd(values)
	limit := diversityTau * std * std
	if limit <= 0 {
		limit = 1e-9
	}
	for _, p := range picked {
		if ts.Dist(values, p.Values) < limit {
			return true
		}
	}
	return false
}
