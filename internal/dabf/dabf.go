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
)

// Config parameterises DABF construction (Algorithm 2).
type Config struct {
	LSH       lsh.Kind // hash family (paper default: L2, Table VII)
	Dim       int      // resampled subsequence dimension (default 32)
	NumHashes int      // hash functions per family (default 8)
	Width     float64  // p-stable quantisation width (default 1)
	Bins      int      // histogram bins for distribution fitting (default 16)
	Sigma     float64  // z-score threshold θ of the 3σ rule (default 3)
	// MinKeep is the minimum number of motif candidates PruneSpan retains per
	// class (default 10): when the θσ rule would remove more, the motifs
	// with the largest z-scores against other classes — the most
	// distinctive ones — are kept, so top-k selection never starves.
	MinKeep int
	Seed    int64
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
	if c.MinKeep <= 0 {
		c.MinKeep = 10
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
	// every CloseToMost query with false (zScore returns +Inf): it never
	// prunes candidates of other classes, the safe direction for a filter
	// whose statistics are fiction.  BuildSpan still records Dist/Mu/Sigma for
	// inspection, but downstream pruning ignores them.
	Degenerate bool

	sigToRank map[string]int
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
		cf := &ClassFilter{Class: class, Family: family, sigToRank: map[string]int{}}

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
		for rank, b := range cf.Buckets {
			cf.sigToRank[b.Signature] = rank
		}

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
// class's fitted distribution, in standard deviations.  A degenerate filter
// (see ClassFilter.Degenerate) places everything infinitely far away, so it
// never claims a candidate as "close".
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

// CloseToMost answers the DABF query of Alg. 3: true means the candidate is
// "possibly close to most elements" of this class (its normalised projected
// norm lies within θ standard deviations of the fitted distribution), false
// means "definitely not close to most elements".
func (cf *ClassFilter) CloseToMost(values []float64, dim int, theta float64) bool {
	return math.Abs(cf.zScore(values, dim)) <= theta
}

// ProjectValues resamples a subsequence to the filter dimension and maps it
// through the class LSH projection — the ‖LSH(·)‖ space the DT optimisation
// (Formula 15) measures distances in.
func (cf *ClassFilter) ProjectValues(values []float64, dim int) []float64 {
	return cf.Family.Project(lsh.Resample(values, dim))
}

// BucketIndex returns the rank B_i of the candidate's bucket in the class's
// distance-ranked bucket list; unseen signatures are mapped to the bucket
// with the nearest centre norm.  This is the quantity the DT optimisation
// (Formula 15/16) substitutes for raw distances.
func (cf *ClassFilter) BucketIndex(values []float64, dim int) int {
	v := lsh.Resample(values, dim)
	if rank, ok := cf.sigToRank[cf.Family.Signature(v)]; ok {
		return rank
	}
	n := lsh.Norm(cf.Family, v)
	// Binary search over the sorted NormDist values.
	lo, hi := 0, len(cf.Buckets)-1
	if hi < 0 {
		return 0
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if cf.Buckets[mid].NormDist < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && math.Abs(cf.Buckets[lo-1].NormDist-n) < math.Abs(cf.Buckets[lo].NormDist-n) {
		return lo - 1
	}
	return lo
}

// PruneStats summarises a pruning pass.
type PruneStats struct {
	Examined int
	Pruned   int
}

// PruneSpan runs Algorithm 3: every candidate is queried against the DABF
// of every *other* class; candidates possibly close to most elements of some
// other class are removed.  A new pool is returned; the input is untouched.
// At least cfg.MinKeep motif candidates survive per class (the most
// distinctive ones by z-score) so downstream selection never starves.
//
// It feeds four counters: dabf.prune.examined / accepted / rejected, and
// dabf.prune.false_positives — candidates the filter answered "possibly
// close" for but the MinKeep floor restored as the most distinctive of
// their class, i.e. the measurable proxy for the filter's false-positive
// side.  Counts are accumulated locally and published once, so the
// per-candidate loop carries no atomic traffic.  The context is checked
// once per pruneCheckEvery candidates; a cancelled prune returns a nil pool
// and an error matching errs.ErrCanceled.
func PruneSpan(ctx context.Context, pool *ip.Pool, d *DABF, sp *obs.Span) (*ip.Pool, PruneStats, error) {
	cfg := d.Cfg
	out := &ip.Pool{ByClass: map[int][]ip.Candidate{}}
	var st PruneStats
	refilled := 0
	for class, cands := range pool.ByClass {
		var kept []ip.Candidate
		// Pruned motifs ranked by distinctiveness for the MinKeep fallback.
		type rejected struct {
			idx int
			z   float64 // smallest |z| across other classes; larger = more distinctive
		}
		var rejectedMotifs []rejected
		keptMotifs := 0
		for i, cand := range cands {
			if i%pruneCheckEvery == 0 {
				if err := errs.Ctx(ctx, errs.StagePruning, "dabf.prune"); err != nil {
					return nil, st, err
				}
			}
			st.Examined++
			worst := math.Inf(1) // smallest |z| across other classes decides pruning
			prune := false
			for otherClass, cf := range d.PerClass {
				if otherClass == class {
					continue
				}
				z := math.Abs(cf.zScore(cand.Values, cfg.Dim))
				if z < worst {
					worst = z
				}
				if z <= cfg.Sigma {
					prune = true
				}
			}
			if prune {
				st.Pruned++
				if cand.Kind == ip.Motif {
					rejectedMotifs = append(rejectedMotifs, rejected{idx: i, z: worst})
				}
				continue
			}
			if cand.Kind == ip.Motif {
				keptMotifs++
			}
			kept = append(kept, cand)
		}
		if keptMotifs < cfg.MinKeep && len(rejectedMotifs) > 0 {
			sort.Slice(rejectedMotifs, func(a, b int) bool {
				return rejectedMotifs[a].z > rejectedMotifs[b].z
			})
			for _, r := range rejectedMotifs {
				if keptMotifs >= cfg.MinKeep {
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
		m.Counter("dabf.prune.accepted").Add(int64(st.Examined - st.Pruned))
		m.Counter("dabf.prune.rejected").Add(int64(st.Pruned))
		m.Counter("dabf.prune.false_positives").Add(int64(refilled))
	}
	sp.SetInt("examined", int64(st.Examined))
	sp.SetInt("pruned", int64(st.Pruned))
	sp.SetInt("refilled", int64(refilled))
	obs.Log(ctx).Debug("pruning stats", "op", "dabf.prune",
		"examined", st.Examined, "pruned", st.Pruned, "refilled", refilled)
	return out, st, nil
}

// pruneCheckEvery bounds the pruning loops' cancellation latency: the
// context is polled every this many candidates (ctx.Err takes a runtime
// mutex, so per-candidate polling would add contention for nothing — a
// single candidate's query work is microseconds).
const pruneCheckEvery = 64

// NaivePrune is the quadratic baseline the DABF replaces (§III-B): for every
// candidate it computes the raw distance to every candidate of every other
// class and prunes when at least the Chebyshev fraction (1 − 1/θ²) of them
// lie below that class's closeness radius (the mean intra-class pairwise
// distance).  Complexity O(|Φ|² · Dim) versus the DABF's O(|Φ| · Dim).
//
// A class with fewer than two candidates has no intra-class pairwise
// distances and therefore no closeness radius; such classes never prune
// anyone (they are skipped in the per-candidate loop), mirroring the
// Degenerate fallback of the DABF proper.  Previously a missing map entry
// silently read as radius 0, which spuriously counted exact duplicates as
// "close" while claiming every other candidate was not — neither direction
// intended.  The context is checked once per pruneCheckEvery candidates;
// as the quadratic baseline this is the pruning path that most needs
// cancellation.
func NaivePrune(ctx context.Context, pool *ip.Pool, dim int, theta float64) (*ip.Pool, PruneStats, error) {
	if dim <= 0 {
		dim = 32
	}
	if theta <= 0 {
		theta = 3
	}
	// Resample every candidate once.
	resampled := map[int][][]float64{}
	for class, cands := range pool.ByClass {
		vs := make([][]float64, len(cands))
		for i, c := range cands {
			vs[i] = lsh.Resample(c.Values, dim)
		}
		resampled[class] = vs
	}
	// Closeness radius per class: mean + θ·std of the intra-class pairwise
	// distances, mirroring the θσ tolerance the DABF applies in hash space.
	// Classes without at least one pair get no entry — see above.
	radius := map[int]float64{}
	for class, vs := range resampled {
		var ds []float64
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				ds = append(ds, euclid(vs[i], vs[j]))
			}
		}
		if len(ds) > 0 {
			mu, sigma, _ := stats.Moments(ds)
			radius[class] = mu + theta*sigma
		}
	}
	quota := 1 - 1/(theta*theta) // Chebyshev's "most elements"
	const minKeep = 10           // same starvation floor as PruneSpan
	out := &ip.Pool{ByClass: map[int][]ip.Candidate{}}
	var st PruneStats
	for class, cands := range pool.ByClass {
		var kept []ip.Candidate
		keptMotifs := 0
		type rejected struct {
			idx      int
			maxClose float64 // largest close-fraction seen; smaller = more distinctive
		}
		var rejectedMotifs []rejected
		for i, cand := range cands {
			if i%pruneCheckEvery == 0 {
				if err := errs.Ctx(ctx, errs.StagePruning, "dabf.naive-prune"); err != nil {
					return nil, st, err
				}
			}
			st.Examined++
			v := resampled[class][i]
			prune := false
			worstClose := 0.0
			for otherClass, ovs := range resampled {
				if otherClass == class || len(ovs) == 0 {
					continue
				}
				r, ok := radius[otherClass]
				if !ok {
					continue // single-candidate class: no radius, prunes no one
				}
				close := 0
				for _, ov := range ovs {
					if euclid(v, ov) <= r {
						close++
					}
				}
				frac := float64(close) / float64(len(ovs))
				if frac > worstClose {
					worstClose = frac
				}
				if frac >= quota {
					prune = true
				}
			}
			if prune {
				st.Pruned++
				if cand.Kind == ip.Motif {
					rejectedMotifs = append(rejectedMotifs, rejected{idx: i, maxClose: worstClose})
				}
				continue
			}
			if cand.Kind == ip.Motif {
				keptMotifs++
			}
			kept = append(kept, cand)
		}
		if keptMotifs < minKeep && len(rejectedMotifs) > 0 {
			sort.Slice(rejectedMotifs, func(a, b int) bool {
				return rejectedMotifs[a].maxClose < rejectedMotifs[b].maxClose
			})
			for _, r := range rejectedMotifs {
				if keptMotifs >= minKeep {
					break
				}
				kept = append(kept, cands[r.idx])
				keptMotifs++
				st.Pruned--
			}
		}
		out.ByClass[class] = kept
	}
	return out, st, nil
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
