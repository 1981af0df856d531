package dabf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ips/internal/ip"
	"ips/internal/lsh"
	"ips/internal/ts"
)

func TestBloomBasics(t *testing.T) {
	b := NewBloom(100, 0.01)
	keys := []string{"alpha", "beta", "gamma"}
	for _, k := range keys {
		b.Add([]byte(k))
	}
	for _, k := range keys {
		if !b.Contains([]byte(k)) {
			t.Fatalf("inserted key %q reported absent", k)
		}
	}
	// False positive rate should stay near the target under load.
	b = NewBloom(1000, 0.01)
	for i := 0; i < 1000; i++ {
		b.Add([]byte{byte(i), byte(i >> 8), 1})
	}
	fp := 0
	const probes = 5000
	for i := 0; i < probes; i++ {
		if b.Contains([]byte{byte(i), byte(i >> 8), 2}) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate = %v", rate)
	}
}

func TestBloomDegenerateParams(t *testing.T) {
	b := NewBloom(0, 2.0) // both invalid → defaults
	b.Add([]byte("x"))
	if !b.Contains([]byte("x")) {
		t.Fatal("degenerate-parameter filter broken")
	}
}

// twoClassPool builds a pool whose class-0 candidates cluster around one
// shape and class-1 candidates around a very different shape.
func twoClassPool(perClass int, seed int64) *ip.Pool {
	rng := rand.New(rand.NewSource(seed))
	mk := func(base []float64, scale float64) ts.Series {
		out := make(ts.Series, len(base))
		for i, v := range base {
			out[i] = v + scale*rng.NormFloat64()
		}
		return out
	}
	base0 := make([]float64, 24)
	base1 := make([]float64, 24)
	for i := range base0 {
		base0[i] = math.Sin(float64(i) / 3)
		base1[i] = 10 + 5*math.Cos(float64(i)/2)
	}
	pool := &ip.Pool{ByClass: map[int][]ip.Candidate{}}
	for i := 0; i < perClass; i++ {
		pool.ByClass[0] = append(pool.ByClass[0], ip.Candidate{
			Class: 0, Kind: ip.Motif, Values: mk(base0, 0.05),
		})
		pool.ByClass[1] = append(pool.ByClass[1], ip.Candidate{
			Class: 1, Kind: ip.Motif, Values: mk(base1, 0.05),
		})
	}
	return pool
}

func TestBuildProducesRankedBucketsAndFit(t *testing.T) {
	pool := twoClassPool(40, 3)
	d, err := BuildSpan(context.Background(), pool, Config{Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PerClass) != 2 {
		t.Fatalf("class filters = %d", len(d.PerClass))
	}
	for class, cf := range d.PerClass {
		if len(cf.Buckets) == 0 {
			t.Fatalf("class %d has no buckets", class)
		}
		total := 0
		for i, b := range cf.Buckets {
			total += b.Count
			if i > 0 && cf.Buckets[i].NormDist < cf.Buckets[i-1].NormDist {
				t.Fatalf("class %d buckets not ranked", class)
			}
		}
		if total != 40 {
			t.Fatalf("class %d bucket counts sum to %d", class, total)
		}
		if cf.Dist == nil || math.IsNaN(cf.FitNMSE) {
			t.Fatalf("class %d missing distribution fit", class)
		}
		if cf.Sigma <= 0 {
			t.Fatalf("class %d sigma = %v", class, cf.Sigma)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildSpan(context.Background(), nil, Config{}, nil); err == nil {
		t.Fatal("nil pool should error")
	}
	if _, err := BuildSpan(context.Background(), &ip.Pool{ByClass: map[int][]ip.Candidate{}}, Config{}, nil); err == nil {
		t.Fatal("empty pool should error")
	}
}

func TestCloseToMostSemantics(t *testing.T) {
	pool := twoClassPool(60, 5)
	d, err := BuildSpan(context.Background(), pool, Config{Seed: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf0 := d.PerClass[0]
	// A class-0 candidate is close to most of class 0.
	member := pool.ByClass[0][0].Values
	if !cf0.CloseToMost(member, d.Cfg.Dim, d.Cfg.Sigma) {
		t.Fatal("class member not close to most of its own class")
	}
	// A class-1 candidate (very different scale/shape) is definitely not.
	outsider := pool.ByClass[1][0].Values
	if cf0.CloseToMost(outsider, d.Cfg.Dim, d.Cfg.Sigma) {
		t.Fatal("outsider reported close to most of class 0")
	}
}

func TestBucketIndex(t *testing.T) {
	pool := twoClassPool(50, 7)
	d, err := BuildSpan(context.Background(), pool, Config{Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf := d.PerClass[0]
	// Known candidates map inside the bucket range.
	for _, cand := range pool.ByClass[0] {
		idx := cf.BucketIndex(cand.Values, d.Cfg.Dim)
		if idx < 0 || idx >= len(cf.Buckets) {
			t.Fatalf("bucket index %d out of range [0,%d)", idx, len(cf.Buckets))
		}
	}
	// An unseen far-away candidate maps to a valid (edge) bucket.
	far := make(ts.Series, 24)
	for i := range far {
		far[i] = 1e4
	}
	idx := cf.BucketIndex(far, d.Cfg.Dim)
	if idx < 0 || idx >= len(cf.Buckets) {
		t.Fatalf("unseen candidate bucket index %d out of range", idx)
	}
	// Two near-identical candidates land in nearby (usually equal) buckets.
	a := pool.ByClass[0][0].Values
	b := a.Clone()
	b[0] += 1e-9
	ia, ib := cf.BucketIndex(a, d.Cfg.Dim), cf.BucketIndex(b, d.Cfg.Dim)
	if diff := ia - ib; diff < -1 || diff > 1 {
		t.Fatalf("near-identical candidates map to distant buckets %d vs %d", ia, ib)
	}
}

func TestPruneRemovesCrossClassCandidates(t *testing.T) {
	pool := twoClassPool(40, 9)
	// Add to class 0 a candidate that mimics class 1 exactly: it should be
	// pruned because it is close to most of class 1.
	impostor := pool.ByClass[1][0].Values.Clone()
	pool.ByClass[0] = append(pool.ByClass[0], ip.Candidate{
		Class: 0, Kind: ip.Motif, Values: impostor,
	})
	d, err := BuildSpan(context.Background(), pool, Config{Seed: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pruned, st, err := PruneSpan(context.Background(), pool, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Examined != pool.Size() {
		t.Fatalf("examined %d, want %d", st.Examined, pool.Size())
	}
	for _, cand := range pruned.ByClass[0] {
		if ts.EuclideanDist(lsh.Resample(cand.Values, 24), impostor) < 1e-9 {
			t.Fatal("impostor survived pruning")
		}
	}
	// The genuinely distinctive candidates survive.
	if len(pruned.ByClass[0]) == 0 || len(pruned.ByClass[1]) == 0 {
		t.Fatalf("pruning starved a class: %d / %d", len(pruned.ByClass[0]), len(pruned.ByClass[1]))
	}
}

func TestPruneKeepsFallbackMotif(t *testing.T) {
	// Two identical classes: everything is close to everything, so pruning
	// would remove all candidates — the fallback must keep one motif each.
	rng := rand.New(rand.NewSource(11))
	pool := &ip.Pool{ByClass: map[int][]ip.Candidate{}}
	base := make([]float64, 16)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 20; i++ {
			vals := make(ts.Series, 16)
			for j := range vals {
				vals[j] = base[j] + 0.01*rng.NormFloat64()
			}
			pool.ByClass[c] = append(pool.ByClass[c], ip.Candidate{Class: c, Kind: ip.Motif, Values: vals})
		}
	}
	d, err := BuildSpan(context.Background(), pool, Config{Seed: 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := PruneSpan(context.Background(), pool, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		motifs := 0
		for _, cand := range pruned.ByClass[c] {
			if cand.Kind == ip.Motif {
				motifs++
			}
		}
		if motifs == 0 {
			t.Fatalf("class %d has no motif after pruning", c)
		}
	}
}

func TestNaivePruneAgreesDirectionally(t *testing.T) {
	pool := twoClassPool(30, 13)
	impostor := pool.ByClass[1][0].Values.Clone()
	pool.ByClass[0] = append(pool.ByClass[0], ip.Candidate{Class: 0, Kind: ip.Motif, Values: impostor})
	pruned, st, err := NaivePrune(context.Background(), pool, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruned == 0 {
		t.Fatal("naive prune removed nothing")
	}
	for _, cand := range pruned.ByClass[0] {
		if ts.EuclideanDist(cand.Values, impostor) < 1e-9 {
			t.Fatal("impostor survived naive pruning")
		}
	}
	// Defaults path.
	if _, _, err := NaivePrune(context.Background(), pool, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDABFFasterThanNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	pool := twoClassPool(400, 14)
	d, err := BuildSpan(context.Background(), pool, Config{Seed: 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := nowNs()
	if _, _, err := PruneSpan(context.Background(), pool, d, nil); err != nil {
		t.Fatal(err)
	}
	dabfNs := nowNs() - t0
	t0 = nowNs()
	if _, _, err := NaivePrune(context.Background(), pool, 32, 3); err != nil {
		t.Fatal(err)
	}
	naiveNs := nowNs() - t0
	// The asymptotic gap (linear vs quadratic in |Φ|) should be visible at
	// this size; allow generous slack for timer noise.
	if dabfNs > naiveNs {
		t.Logf("warning: DABF prune (%d ns) not faster than naive (%d ns) at this size", dabfNs, naiveNs)
	}
}

func nowNs() int64 {
	return testingClock()
}
