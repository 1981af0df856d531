package dabf

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ips/internal/ip"
	"ips/internal/lsh"
	"ips/internal/obs"
	"ips/internal/stats"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// TestPrunePassCounts pins how many candidates each pruning path's own
// closeness test lets through (PruneStats.Passed, before the minKeep
// refill) at quick scale, default configs, seed 1.  The DABF's 3σ band
// passes almost nothing, and everything else selection sees is a refill; a
// change to either closeness test shows here first.
func TestPrunePassCounts(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		examined, dabf, naive int
	}{
		{"ItalyPowerDemand", 160, 3, 5},
		{"GunPoint", 200, 2, 2},
		{"CBF", 300, 0, 2},
		{"ArrowHead", 300, 0, 9},
		{"TwoLeadECG", 200, 19, 35},
		{"UWaveGestureLibraryY", 800, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			train, _, err := ucr.GenerateByName(tc.name, ucr.GenConfig{MaxTrain: 30, MaxLength: 160, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			pool, err := ip.GenerateSpan(ctx, train, ip.Config{Seed: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			d, err := BuildSpan(ctx, pool, Config{Seed: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, fast, err := PruneSpan(ctx, pool, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, naive, err := NaivePrune(ctx, pool, Config{Seed: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Examined != tc.examined || fast.Passed != tc.dabf || naive.Examined != tc.examined || naive.Passed != tc.naive {
				t.Fatalf("DABF passed %d of %d, naive %d of %d; want %d, %d of %d",
					fast.Passed, fast.Examined, naive.Passed, naive.Examined, tc.dabf, tc.naive, tc.examined)
			}
		})
	}
}

// identicalClassesPool builds two classes drawn around one shape, so both
// closeness tests prune nearly everything and the minKeep floor refills.
func identicalClassesPool(perClass int, seed int64) *ip.Pool {
	rng := rand.New(rand.NewSource(seed))
	pool := &ip.Pool{ByClass: map[int][]ip.Candidate{}}
	base := make([]float64, 16)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < perClass; i++ {
			vals := make(ts.Series, 16)
			for j := range vals {
				vals[j] = base[j] + 0.01*rng.NormFloat64()
			}
			pool.ByClass[c] = append(pool.ByClass[c], ip.Candidate{Class: c, Kind: ip.Motif, Values: vals})
		}
	}
	return pool
}

// TestPrunePathsPublishSameTelemetry requires the DABF and naive paths to
// record the same span attributes and dabf.prune.* counters, and the counts
// to agree with the returned PruneStats: accepted = passed + refilled.
func TestPrunePathsPublishSameTelemetry(t *testing.T) {
	impostor := twoClassPool(30, 21)
	impostor.ByClass[0] = append(impostor.ByClass[0], ip.Candidate{
		Class: 0, Kind: ip.Motif, Values: impostor.ByClass[1][0].Values.Clone(),
	})
	for _, pc := range []struct {
		name string
		pool *ip.Pool
	}{{"impostor", impostor}, {"identical", identicalClassesPool(20, 22)}} {
		name, pool := pc.name, pc.pool
		d, err := BuildSpan(context.Background(), pool, Config{Seed: 23}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var keys [][]string
		for _, path := range []struct {
			name string
			run  func(context.Context, *obs.Span) (*ip.Pool, PruneStats, error)
		}{
			{"dabf", func(ctx context.Context, sp *obs.Span) (*ip.Pool, PruneStats, error) {
				return PruneSpan(ctx, pool, d, sp)
			}},
			{"naive", func(ctx context.Context, sp *obs.Span) (*ip.Pool, PruneStats, error) {
				return NaivePrune(ctx, pool, Config{}, sp)
			}},
		} {
			o := obs.New("test")
			sp := o.Root().Child("prune")
			out, st, err := path.run(context.Background(), sp)
			sp.End()
			if err != nil {
				t.Fatal(err)
			}
			attrs := map[string]int64{}
			var names []string
			for _, a := range sp.Attrs() {
				attrs[a.Key] = a.Value.(int64)
				names = append(names, a.Key)
			}
			keys = append(keys, names)
			reg := o.Metrics()
			refilled := attrs["refilled"]
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"examined attr", attrs["examined"], int64(st.Examined)},
				{"passed attr", attrs["passed"], int64(st.Passed)},
				{"pruned attr", attrs["pruned"], int64(st.Pruned)},
				{"dabf.prune.examined", reg.Counter("dabf.prune.examined").Value(), int64(st.Examined)},
				{"dabf.prune.passed", reg.Counter("dabf.prune.passed").Value(), int64(st.Passed)},
				{"dabf.prune.accepted", reg.Counter("dabf.prune.accepted").Value(), int64(st.Passed) + refilled},
				{"dabf.prune.rejected", reg.Counter("dabf.prune.rejected").Value(), int64(st.Pruned)},
				{"dabf.prune.false_positives", reg.Counter("dabf.prune.false_positives").Value(), refilled},
				{"pool size", int64(out.Size()), int64(st.Examined - st.Pruned)},
				{"examined", int64(st.Examined), int64(pool.Size())},
			} {
				if c.got != c.want {
					t.Errorf("%s/%s: %s = %d, want %d", name, path.name, c.name, c.got, c.want)
				}
			}
			if name == "identical" && refilled == 0 {
				t.Errorf("%s/%s: nothing refilled", name, path.name)
			}
		}
		if !reflect.DeepEqual(keys[0], keys[1]) {
			t.Errorf("%s: span attributes differ between paths: %v vs %v", name, keys[0], keys[1])
		}
	}
}

// TestPairMeanStdMatchesMoments pins NaivePrune's closeness radius to what
// it was when the pairwise distances were materialised: pairMeanStd's mean
// and std are bit-equal to stats.Moments over the slice of every
// intra-class distance in (i, j) order, for each class of several
// datasets' candidate pools and for the two- and three-candidate classes.
func TestPairMeanStdMatchesMoments(t *testing.T) {
	ctx := context.Background()
	var classes [][][]float64
	for _, name := range []string{"ItalyPowerDemand", "GunPoint", "ArrowHead", "TwoLeadECG"} {
		train, _, err := ucr.GenerateByName(name, ucr.GenConfig{MaxTrain: 30, MaxLength: 160, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := ip.GenerateSpan(ctx, train, ip.Config{Seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range pool.Classes() {
			cands := pool.ByClass[class]
			vs := make([][]float64, len(cands))
			for i, c := range cands {
				vs[i] = lsh.Resample(c.Values, Config{}.Defaults().Dim)
			}
			classes = append(classes, vs, vs[:2], vs[:3])
		}
	}
	for k, vs := range classes {
		var ds []float64
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				ds = append(ds, ts.EuclideanDist(vs[i], vs[j]))
			}
		}
		wantMean, wantStd, _ := stats.Moments(ds)
		mean, std := pairMeanStd(vs)
		if math.Float64bits(mean) != math.Float64bits(wantMean) || math.Float64bits(std) != math.Float64bits(wantStd) {
			t.Fatalf("class %d (%d candidates): pairMeanStd = (%v, %v), stats.Moments = (%v, %v)", k, len(vs), mean, std, wantMean, wantStd)
		}
	}
}
