package dabf

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ips/internal/ts"
)

// Property: the Alg. 3 query |z| ≤ θ is monotone in θ — a candidate close at
// a tighter threshold stays close at any looser one.
func TestCloseToMostMonotoneInTheta(t *testing.T) {
	pool := twoClassPool(40, 100)
	d, err := BuildSpan(context.Background(), pool, Config{Seed: 101}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf := d.PerClass[0]
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make(ts.Series, 24)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 5
		}
		prev := false
		for _, theta := range []float64{0.5, 1, 2, 3, 5, 10} {
			now := math.Abs(cf.zScore(vals, d.Cfg.Dim)) <= theta
			if prev && !now {
				return false // was close at a tighter θ, not at a looser one
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectValuesDimension(t *testing.T) {
	pool := twoClassPool(20, 102)
	d, err := BuildSpan(context.Background(), pool, Config{NumHashes: 6, Seed: 103}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf := d.PerClass[0]
	for _, n := range []int{5, 24, 100} {
		vals := make(ts.Series, n)
		p := cf.ProjectValues(vals, d.Cfg.Dim)
		if len(p) != 6 {
			t.Fatalf("projection of length-%d input has %d dims, want 6", n, len(p))
		}
	}
}

// Property: pruning never grows the pool and never invents candidates.
func TestPruneNeverGrows(t *testing.T) {
	f := func(seed int64) bool {
		pool := twoClassPool(10+int(seed%30+30)%30, seed)
		d, err := BuildSpan(context.Background(), pool, Config{Seed: seed}, nil)
		if err != nil {
			return false
		}
		pruned, st, err := PruneSpan(context.Background(), pool, d, nil)
		if err != nil || pruned.Size() > pool.Size() {
			return false
		}
		return st.Examined == pool.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
