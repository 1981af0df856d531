package dabf

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"ips/internal/errs"
	"ips/internal/ip"
	"ips/internal/lsh"
	"ips/internal/obs"
	"ips/internal/stats"
	"ips/internal/ts"
)

// Config parameterises DABF construction (Algorithm 2).
type Config struct {
	LSH       lsh.Kind // hash family (paper default: L2, Table VII)
	Dim       int      // resampled subsequence dimension (default 32)
	NumHashes int      // hash functions per family (default 8)
	Width     float64  // p-stable quantisation width (default 1)
	Bins      int      // histogram bins for distribution fitting (default 16)
	Sigma     float64  // z-score threshold θ of the 3σ rule (default 3)
	Seed      int64
}

// Defaults fills zero-valued fields.
func (c Config) Defaults() Config {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.NumHashes <= 0 {
		c.NumHashes = 8
	}
	if c.Width <= 0 {
		c.Width = 1
	}
	if c.Bins <= 0 {
		c.Bins = 16
	}
	if c.Sigma <= 0 {
		c.Sigma = 3
	}
	return c
}

// Bucket is one LSH bucket: candidates sharing a signature, summarised by
// their centre and its distance from the origin (Alg. 2 line 7).
type Bucket struct {
	Signature string
	Center    []float64
	Count     int
	NormDist  float64 // ‖Center‖₂
}

// ClassFilter is the per-class structure DABF_C = (LSH_C, Distribution_C).
type ClassFilter struct {
	Class   int
	Family  lsh.Family
	Buckets []Bucket // ranked by NormDist ascending
	// Dist is the best-fit distribution over the z-normalised projected
	// norms of the class's candidates; Mu/Sigma are the z-normalisation
	// parameters of the raw norms.
	Dist      stats.Distribution
	Mu, Sigma float64
	FitNMSE   float64
	// Degenerate marks a class whose projected norms carry no spread —
	// fewer than two candidates, or all norms identical — so no
	// distribution can be fitted meaningfully.  A degenerate filter answers
	// every Alg. 3 query with false (zScore returns +Inf): it never
	// prunes candidates of other classes, the safe direction for a filter
	// whose statistics are fiction.  BuildSpan still records Dist/Mu/Sigma for
	// inspection, but downstream pruning ignores them.
	Degenerate bool
}

// DABF is the distribution-aware bloom filter over all classes.
type DABF struct {
	PerClass map[int]*ClassFilter
	Cfg      Config
}

// BuildSpan runs Algorithm 2: per class, hash every candidate (motifs and
// discords) into buckets, rank buckets by centre distance from the origin,
// z-normalise the projected norms, and fit the best distribution by NMSE.
//
// A sub-span per class filter (annotated with the chosen distribution, its
// NMSE, and the bucket count) and a bucket-occupancy histogram hang off sp.
// A nil span disables all of it; the filter is identical either way.  The
// context is checked once per class; a cancelled build returns a nil filter
// and an error matching errs.ErrCanceled.
func BuildSpan(ctx context.Context, pool *ip.Pool, cfg Config, sp *obs.Span) (*DABF, error) {
	cfg = cfg.Defaults()
	if pool == nil || len(pool.ByClass) == 0 {
		return nil, errs.BadInput(errs.StagePruning, "dabf.build", "", "empty candidate pool")
	}
	occupancy := sp.Metrics().Histogram("dabf.bucket_occupancy", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	d := &DABF{PerClass: map[int]*ClassFilter{}, Cfg: cfg}
	classes := pool.Classes()
	sort.Ints(classes)
	for ci, class := range classes {
		if err := errs.Ctx(ctx, errs.StagePruning, "dabf.build"); err != nil {
			return nil, err
		}
		cands := pool.ByClass[class]
		if len(cands) == 0 {
			continue
		}
		fsp := sp.Child("fit.class-" + strconv.Itoa(class))
		family := lsh.New(lsh.Config{
			Kind:      cfg.LSH,
			Dim:       cfg.Dim,
			NumHashes: cfg.NumHashes,
			Width:     cfg.Width,
			Seed:      cfg.Seed + int64(ci),
		})
		cf := &ClassFilter{Class: class, Family: family}

		// Bucket inserting (Alg. 2 lines 4-6).
		type acc struct {
			sum   []float64
			count int
		}
		buckets := map[string]*acc{}
		norms := make([]float64, 0, len(cands))
		for _, cand := range cands {
			v := lsh.Resample(cand.Values, cfg.Dim)
			proj := family.Project(v)
			var n float64
			for _, p := range proj {
				n += p * p
			}
			norms = append(norms, math.Sqrt(n))
			sig := family.Signature(v)
			a := buckets[sig]
			if a == nil {
				a = &acc{sum: make([]float64, len(proj))}
				buckets[sig] = a
			}
			for i, p := range proj {
				a.sum[i] += p
			}
			a.count++
		}
		for sig, a := range buckets {
			center := make([]float64, len(a.sum))
			var n float64
			for i, s := range a.sum {
				center[i] = s / float64(a.count)
				n += center[i] * center[i]
			}
			cf.Buckets = append(cf.Buckets, Bucket{
				Signature: sig,
				Center:    center,
				Count:     a.count,
				NormDist:  math.Sqrt(n),
			})
		}
		// Rank buckets by distance from the origin (Alg. 2 line 7).
		sort.Slice(cf.Buckets, func(i, j int) bool {
			//lint:ignore ipslint/floateq comparator tie-break: exact inequality falls through to the signature order
			if cf.Buckets[i].NormDist != cf.Buckets[j].NormDist {
				return cf.Buckets[i].NormDist < cf.Buckets[j].NormDist
			}
			return cf.Buckets[i].Signature < cf.Buckets[j].Signature
		})

		// Z-normalise the norms and fit the best distribution
		// (Alg. 2 lines 8-10, Formula 10).  A class with fewer than two
		// candidates, or whose norms all coincide, has no spread to
		// normalise by: the old sigma→1e-9 substitution turned the z-scores
		// into ±1e9-scale noise that pruned (or spared) other classes'
		// candidates on floating-point accidents.  Such a filter is marked
		// Degenerate instead — it still exists (so FitsByClass and the DT
		// projection keep working) but never prunes anything.
		mu, sigma, _ := stats.Moments(norms)
		if len(norms) < 2 || sigma == 0 {
			cf.Degenerate = true
			fsp.SetString("degenerate", "true")
		}
		if sigma == 0 {
			sigma = 1e-9
		}
		cf.Mu, cf.Sigma = mu, sigma
		z := make([]float64, len(norms))
		for i, n := range norms {
			z[i] = (n - mu) / sigma
		}
		bins := cfg.Bins
		if bins > len(z) {
			bins = len(z)
		}
		if bins < 1 {
			bins = 1
		}
		// The 3σ rule presumes a bell-shaped fit; following Table III (which
		// observes only Norm and Gamma across the archive) the DABF chooses
		// between those two families by NMSE.
		hist, err := stats.NewHistogram(z, bins)
		if err != nil {
			fsp.End()
			return nil, errs.Wrap(errs.StagePruning, "dabf.build", "",
				fmt.Errorf("class %d distribution fit: %w", class, err))
		}
		norm := stats.FitNormal(z)
		gamma := stats.FitGamma(z)
		nNMSE, gNMSE := hist.NMSE(norm), hist.NMSE(gamma)
		if nNMSE <= gNMSE {
			cf.Dist, cf.FitNMSE = norm, nNMSE
		} else {
			cf.Dist, cf.FitNMSE = gamma, gNMSE
		}
		d.PerClass[class] = cf
		for _, b := range cf.Buckets {
			occupancy.Observe(float64(b.Count))
		}
		fsp.SetInt("candidates", int64(len(cands)))
		fsp.SetInt("buckets", int64(len(cf.Buckets)))
		fsp.SetString("dist", cf.Dist.Name())
		fsp.SetFloat("nmse", cf.FitNMSE)
		fsp.End()
		obs.Log(ctx).Debug("class filter fitted", "op", "dabf.build",
			"class", class, "candidates", len(cands),
			"buckets", len(cf.Buckets), "dist", cf.Dist.Name(),
			"nmse", cf.FitNMSE, "degenerate", cf.Degenerate)
	}
	if len(d.PerClass) == 0 {
		return nil, errs.BadInput(errs.StagePruning, "dabf.build", "", "no class filters built")
	}
	return d, nil
}

// zScore returns the position of the candidate's projected norm within the
// class's fitted distribution, in standard deviations: the DABF query of
// Alg. 3 reads |z| ≤ θ as "possibly close to most elements" of the class and
// anything farther as "definitely not close to most elements".  A degenerate
// filter (see ClassFilter.Degenerate) places everything infinitely far away,
// so it never claims a candidate as "close".
func (cf *ClassFilter) zScore(values []float64, dim int) float64 {
	if cf.Degenerate {
		return math.Inf(1)
	}
	v := lsh.Resample(values, dim)
	n := lsh.Norm(cf.Family, v)
	z := (n - cf.Mu) / cf.Sigma
	std := cf.Dist.Std()
	if std <= 0 {
		std = 1e-9
	}
	return (z - cf.Dist.Mean()) / std
}

// ProjectValues resamples a subsequence to the filter dimension and maps it
// through the class LSH projection — the ‖LSH(·)‖ space the DT optimisation
// (Formula 15) measures distances in.
func (cf *ClassFilter) ProjectValues(values []float64, dim int) []float64 {
	return cf.Family.Project(lsh.Resample(values, dim))
}

// PruneStats summarises a pruning pass.  Passed counts the candidates the
// closeness test itself let through; Examined − Pruned exceeds it by the
// motifs the minKeep floor restored.
type PruneStats struct {
	Examined int
	Passed   int
	Pruned   int
}

// minKeep is the minimum number of motif candidates either pruning path
// retains per class: when the closeness test would remove more, the pruned
// motifs that test scored most distinctive are restored, so top-k selection
// never starves.
const minKeep = 10

// pruneCheckEvery bounds the pruning loop's cancellation latency: the
// context is polled every this many candidates (ctx.Err takes a runtime
// mutex, so per-candidate polling would add contention for nothing — a
// single candidate's query work is microseconds).
const pruneCheckEvery = 64

// closeTest is one pruning path's per-candidate question: is candidate i of
// class possibly close to most elements of some other class (so pruned)?
// score ranks a pruned motif for the minKeep refill; larger is more
// distinctive.
type closeTest func(class, i int, cand ip.Candidate) (near bool, score float64)

// prune is the Alg. 3 loop both pruning paths share.  It walks every class's
// candidates, drops each one test calls close, and refills each class up to
// minKeep motifs with its most distinctive pruned motifs.  A new pool is
// returned; the input is untouched.
//
// It feeds five counters: dabf.prune.examined / passed / accepted /
// rejected, and dabf.prune.false_positives — candidates the test answered
// "possibly close" for but the minKeep floor restored as the most
// distinctive of their class, i.e. the measurable proxy for the test's
// false-positive side.  passed counts the test's own survivors, before the
// refill.  Counts are accumulated locally and published once, so the
// per-candidate loop carries no atomic traffic; sp gets the same counts as
// attributes.  The context is checked once per pruneCheckEvery candidates;
// a cancelled prune returns a nil pool and an error matching
// errs.ErrCanceled.
func prune(ctx context.Context, pool *ip.Pool, op string, test closeTest, sp *obs.Span) (*ip.Pool, PruneStats, error) {
	out := &ip.Pool{ByClass: map[int][]ip.Candidate{}}
	var st PruneStats
	refilled := 0
	for class, cands := range pool.ByClass {
		var kept []ip.Candidate
		// Pruned motifs ranked by distinctiveness for the minKeep refill.
		type rejected struct {
			idx   int
			score float64
		}
		var rejectedMotifs []rejected
		keptMotifs := 0
		for i, cand := range cands {
			if i%pruneCheckEvery == 0 {
				if err := errs.Ctx(ctx, errs.StagePruning, op); err != nil {
					return nil, st, err
				}
			}
			st.Examined++
			if near, score := test(class, i, cand); near {
				st.Pruned++
				if cand.Kind == ip.Motif {
					rejectedMotifs = append(rejectedMotifs, rejected{idx: i, score: score})
				}
				continue
			}
			st.Passed++
			if cand.Kind == ip.Motif {
				keptMotifs++
			}
			kept = append(kept, cand)
		}
		if keptMotifs < minKeep && len(rejectedMotifs) > 0 {
			sort.Slice(rejectedMotifs, func(a, b int) bool {
				return rejectedMotifs[a].score > rejectedMotifs[b].score
			})
			for _, r := range rejectedMotifs {
				if keptMotifs >= minKeep {
					break
				}
				kept = append(kept, cands[r.idx])
				keptMotifs++
				st.Pruned--
				refilled++
			}
		}
		out.ByClass[class] = kept
	}
	if m := sp.Metrics(); m != nil {
		m.Counter("dabf.prune.examined").Add(int64(st.Examined))
		m.Counter("dabf.prune.passed").Add(int64(st.Passed))
		m.Counter("dabf.prune.accepted").Add(int64(st.Examined - st.Pruned))
		m.Counter("dabf.prune.rejected").Add(int64(st.Pruned))
		m.Counter("dabf.prune.false_positives").Add(int64(refilled))
	}
	sp.SetInt("examined", int64(st.Examined))
	sp.SetInt("passed", int64(st.Passed))
	sp.SetInt("pruned", int64(st.Pruned))
	sp.SetInt("refilled", int64(refilled))
	obs.Log(ctx).Debug("pruning stats", "op", op, "examined", st.Examined,
		"passed", st.Passed, "pruned", st.Pruned, "refilled", refilled)
	return out, st, nil
}

// PruneSpan runs Algorithm 3 through the shared prune loop: every candidate
// is queried against the DABF of every *other* class and pruned when its |z|
// (see zScore) is within θ of some other class's distribution.  A pruned
// motif's distinctiveness is its smallest |z| across the other classes.
func PruneSpan(ctx context.Context, pool *ip.Pool, d *DABF, sp *obs.Span) (*ip.Pool, PruneStats, error) {
	cfg := d.Cfg
	return prune(ctx, pool, "dabf.prune", func(class, _ int, cand ip.Candidate) (bool, float64) {
		worst := math.Inf(1) // smallest |z| across other classes
		near := false
		for otherClass, cf := range d.PerClass {
			if otherClass == class {
				continue
			}
			z := math.Abs(cf.zScore(cand.Values, cfg.Dim))
			if z < worst {
				worst = z
			}
			if z <= cfg.Sigma {
				near = true
			}
		}
		return near, worst
	}, sp)
}

// NaivePrune is the quadratic baseline the DABF replaces (§III-B), run
// through the same prune loop as PruneSpan with the filled cfg's Dim and θ:
// for every candidate it computes the raw distance to every candidate of
// every other class and prunes when at least the Chebyshev fraction
// (1 − 1/θ²) of them lie within that class's closeness radius.  A pruned
// motif's distinctiveness is its largest close fraction, negated, so the
// least-close motifs are refilled first.  Complexity O(|Φ|² · Dim) versus
// the DABF's O(|Φ| · Dim).
//
// A class with fewer than two candidates has no intra-class pairwise
// distances and therefore no closeness radius; such classes never prune
// anyone (they are skipped in the per-candidate test), mirroring the
// Degenerate fallback of the DABF proper.  Previously a missing map entry
// silently read as radius 0, which spuriously counted exact duplicates as
// "close" while claiming every other candidate was not — neither direction
// intended.
func NaivePrune(ctx context.Context, pool *ip.Pool, cfg Config, sp *obs.Span) (*ip.Pool, PruneStats, error) {
	cfg = cfg.Defaults()
	theta := cfg.Sigma
	// Resample every candidate once, and give each class a closeness
	// radius: mean + θ·std of the intra-class pairwise distances, mirroring
	// the θσ tolerance the DABF applies in hash space.  Classes without at
	// least one pair get no radius — see above.
	resampled := map[int][][]float64{}
	radius := map[int]float64{}
	for class, cands := range pool.ByClass {
		vs := make([][]float64, len(cands))
		for i, c := range cands {
			vs[i] = lsh.Resample(c.Values, cfg.Dim)
		}
		resampled[class] = vs
		if len(vs) >= 2 {
			mu, sigma := pairMeanStd(vs)
			radius[class] = mu + theta*sigma
		}
	}
	quota := 1 - 1/(theta*theta) // Chebyshev's "most elements"
	return prune(ctx, pool, "dabf.naive-prune", func(class, i int, _ ip.Candidate) (bool, float64) {
		v := resampled[class][i]
		near := false
		worstClose := 0.0 // largest close fraction across other classes
		for otherClass, ovs := range resampled {
			r, ok := radius[otherClass]
			if otherClass == class || !ok {
				continue // a class of fewer than two candidates prunes no one
			}
			n := 0
			for _, ov := range ovs {
				if ts.EuclideanDist(v, ov) <= r {
					n++
				}
			}
			frac := float64(n) / float64(len(ovs))
			if frac > worstClose {
				worstClose = frac
			}
			if frac >= quota {
				near = true
			}
		}
		return near, -worstClose
	}, sp)
}

// pairMeanStd returns the mean and standard deviation of the Euclidean
// distances between every pair vs[i], vs[j], i < j, with the bits
// stats.Moments gives over those distances in (i, j) order: one walk sums
// them, a second sums their squared deviations from the mean.  Walking the
// pairs twice costs a second distance per pair but holds none of the
// |vs|²/2 distances a materialised slice would.
func pairMeanStd(vs [][]float64) (mean, std float64) {
	n := 0
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			mean += ts.EuclideanDist(vs[i], vs[j])
			n++
		}
	}
	mean /= float64(n)
	var m2 float64
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			d := ts.EuclideanDist(vs[i], vs[j]) - mean
			m2 += d * d
		}
	}
	return mean, math.Sqrt(m2 / float64(n))
}
