package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ips/internal/dabf"
	"ips/internal/ip"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// plantedDataset builds a dataset where each class carries its own clear
// pattern; shapelet discovery should recover them and classify well.
func plantedDataset(nPerClass, length, classes int, seed int64) *ts.Dataset {
	rng := rand.New(rand.NewSource(seed))
	patterns := make([][]float64, classes)
	pl := length / 4
	for c := range patterns {
		p := make([]float64, pl)
		for i := range p {
			p[i] = 4 * math.Sin(float64(i)*math.Pi/float64(pl)+float64(c)*2)
		}
		patterns[c] = p
	}
	d := &ts.Dataset{Name: "planted"}
	for c := 0; c < classes; c++ {
		for i := 0; i < nPerClass; i++ {
			vals := make(ts.Series, length)
			for j := range vals {
				vals[j] = 0.3 * rng.NormFloat64()
			}
			at := rng.Intn(length - pl)
			for j, pv := range patterns[c] {
				vals[at+j] += pv
			}
			d.Instances = append(d.Instances, ts.Instance{Values: vals, Label: c})
		}
	}
	return d
}

func smallOptions(seed int64) Options {
	return Options{
		IP:   ip.Config{QN: 5, QS: 3, LengthRatios: []float64{0.2, 0.3}, Seed: seed},
		DABF: dabf.Config{Seed: seed},
		K:    3,
	}
}

func TestSigmoid(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Fatalf("sigmoid(0) = %v", sigmoid(0))
	}
	if sigmoid(100) < 0.999 || sigmoid(-100) > 0.001 {
		t.Fatal("sigmoid tails wrong")
	}
}

func TestStandardise(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	standardise(xs)
	var mean float64
	for _, v := range xs {
		mean += v
	}
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("standardised mean = %v", mean)
	}
	// Constant vector → zeros, empty → no panic.
	c := []float64{7, 7, 7}
	standardise(c)
	for _, v := range c {
		if v != 0 {
			t.Fatalf("constant standardise = %v", c)
		}
	}
	standardise(nil)
}

func TestRawUtilitiesCRMatchesNoCR(t *testing.T) {
	d := plantedDataset(6, 60, 2, 1)
	pool, err := ip.GenerateSpan(context.Background(), d, ip.Config{QN: 4, QS: 2, LengthRatios: []float64{0.25}, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	motifs := pool.Motifs(0)
	others := pool.ByClass[1]
	instances := d.ByClass()[0]
	ctx := context.Background()
	withCR, err := rawUtilities(ctx, motifs, others, instances, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	without, err := rawUtilities(ctx, motifs, others, instances, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range withCR.intra {
		if math.Abs(withCR.intra[i]-without.intra[i]) > 1e-9 {
			t.Fatalf("intra[%d]: CR %v vs no-CR %v", i, withCR.intra[i], without.intra[i])
		}
		if math.Abs(withCR.inter[i]-without.inter[i]) > 1e-9 {
			t.Fatalf("inter[%d] differs", i)
		}
		if math.Abs(withCR.dc[i]-without.dc[i]) > 1e-9 {
			t.Fatalf("dc[%d] differs", i)
		}
	}
}

// TestRawUtilitiesMatchTsDist pins the raw utility sums bit-equal to a
// reference loop of ts.Dist calls that accumulates in the same order.  Two
// length ratios give shorter-first, longer-first and equal-length pairs, so
// both sides of "the longer side is the series" run.
func TestRawUtilitiesMatchTsDist(t *testing.T) {
	d := plantedDataset(6, 80, 2, 5)
	pool, err := ip.GenerateSpan(context.Background(), d, ip.Config{QN: 4, QS: 2, LengthRatios: []float64{0.2, 0.4}, Seed: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	motifs := pool.Motifs(0)
	others := pool.ByClass[1]
	instances := d.ByClass()[0]
	var shorter, longer, equal int
	for _, m := range motifs {
		for _, o := range others {
			switch {
			case len(m.Values) < len(o.Values):
				shorter++
			case len(m.Values) > len(o.Values):
				longer++
			default:
				equal++
			}
		}
	}
	if shorter == 0 || longer == 0 || equal == 0 {
		t.Fatalf("fixture pairs: %d shorter, %d longer, %d equal; want all three", shorter, longer, equal)
	}
	for _, useCR := range []bool{true, false} {
		n := len(motifs)
		want := &utilities{intra: make([]float64, n), inter: make([]float64, n), dc: make([]float64, n)}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch {
				case useCR && j > i:
					v := ts.Dist(motifs[i].Values, motifs[j].Values)
					want.intra[i] += v
					want.intra[j] += v
				case !useCR && j != i:
					want.intra[i] += ts.Dist(motifs[i].Values, motifs[j].Values)
				}
			}
			for _, o := range others {
				want.inter[i] += ts.Dist(motifs[i].Values, o.Values)
			}
		}
		for _, in := range instances {
			for i, m := range motifs {
				want.dc[i] += ts.Dist(m.Values, in.Values)
			}
		}
		got, err := rawUtilities(context.Background(), motifs, others, instances, useCR, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"intra", got.intra[i], want.intra[i]},
				{"inter", got.inter[i], want.inter[i]},
				{"dc", got.dc[i], want.dc[i]},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("useCR=%v %s[%d] = %v, ts.Dist reference = %v", useCR, c.name, i, c.got, c.want)
				}
			}
		}
	}
}

func TestDTUtilitiesCRMatchesNoCR(t *testing.T) {
	d := plantedDataset(6, 60, 2, 3)
	pool, err := ip.GenerateSpan(context.Background(), d, ip.Config{QN: 4, QS: 2, LengthRatios: []float64{0.25}, Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	filt, err := dabf.BuildSpan(context.Background(), pool, dabf.Config{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	motifs := pool.Motifs(0)
	others := pool.ByClass[1]
	instances := d.ByClass()[0]
	cf := filt.PerClass[0]
	ctx := context.Background()
	withCR, err := dtUtilities(ctx, motifs, others, instances, cf, filt.Cfg.Dim, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	without, err := dtUtilities(ctx, motifs, others, instances, cf, filt.Cfg.Dim, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range withCR.intra {
		if withCR.intra[i] != without.intra[i] || withCR.inter[i] != without.inter[i] || withCR.dc[i] != without.dc[i] {
			t.Fatalf("DT utilities differ at %d", i)
		}
	}
}

func TestUtilityScoresOrdering(t *testing.T) {
	// A candidate identical to its class and far from others should score
	// lower (better) than an outlier candidate.
	base := make(ts.Series, 20)
	for i := range base {
		base[i] = math.Sin(float64(i) / 2)
	}
	outlier := make(ts.Series, 20)
	for i := range outlier {
		outlier[i] = 50 + 10*math.Cos(float64(i))
	}
	motifs := []ip.Candidate{
		{Class: 0, Kind: ip.Motif, Values: base},
		{Class: 0, Kind: ip.Motif, Values: base.Clone()},
		{Class: 0, Kind: ip.Motif, Values: outlier},
	}
	var others []ip.Candidate
	for i := 0; i < 4; i++ {
		v := outlier.Clone()
		v[0] += float64(i)
		others = append(others, ip.Candidate{Class: 1, Kind: ip.Motif, Values: v})
	}
	instances := []ts.Instance{{Values: base.Clone(), Label: 0}}
	u, err := rawUtilities(context.Background(), motifs, others, instances, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := u.scores()
	if scores[0] >= scores[2] {
		t.Fatalf("good candidate score %v should beat outlier score %v", scores[0], scores[2])
	}
}

func TestSelectTopKCounts(t *testing.T) {
	d := plantedDataset(8, 80, 3, 6)
	pool, err := ip.GenerateSpan(context.Background(), d, ip.Config{QN: 6, QS: 3, LengthRatios: []float64{0.2}, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := SelectTopK(context.Background(), pool, d, nil, SelectionConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) != 6 { // 2 per class × 3 classes
		t.Fatalf("shapelets = %d, want 6", len(sh))
	}
	perClass := map[int]int{}
	for _, s := range sh {
		perClass[s.Class]++
		if len(s.Values) == 0 {
			t.Fatal("empty shapelet values")
		}
	}
	for c, n := range perClass {
		if n != 2 {
			t.Fatalf("class %d has %d shapelets", c, n)
		}
	}
	// K larger than the pool returns everything available.
	sh, err = SelectTopK(context.Background(), pool, d, nil, SelectionConfig{K: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) != pool.Size()/2 { // half the pool are motifs
		t.Fatalf("oversized K returned %d, want %d", len(sh), pool.Size()/2)
	}
	// Default K kicks in.
	sh, err = SelectTopK(context.Background(), pool, d, nil, SelectionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) == 0 {
		t.Fatal("default K selected nothing")
	}
}

func TestDiscoverEndToEnd(t *testing.T) {
	d := plantedDataset(10, 80, 2, 8)
	res, err := Discover(context.Background(), d, smallOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shapelets) == 0 || res.PoolSize == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.PrunedSize > res.PoolSize {
		t.Fatal("pruning grew the pool")
	}
	if res.Timings.Total() <= 0 {
		t.Fatal("timings not recorded")
	}
	if len(res.FitsByClass) != 2 {
		t.Fatalf("fits per class = %v", res.FitsByClass)
	}
	// Per-class shapelet counts respect K.
	perClass := map[int]int{}
	for _, s := range res.Shapelets {
		perClass[s.Class]++
	}
	for c, n := range perClass {
		if n > 3 {
			t.Fatalf("class %d has %d > K shapelets", c, n)
		}
	}
}

func TestDiscoverWithoutDABF(t *testing.T) {
	d := plantedDataset(8, 60, 2, 10)
	opt := smallOptions(11)
	opt.DisableDABF = true
	res, err := Discover(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.DABF != nil {
		t.Fatal("DABF should be nil when disabled")
	}
	if len(res.Shapelets) == 0 {
		t.Fatal("no shapelets without DABF")
	}
}

func TestDiscoverErrors(t *testing.T) {
	if _, err := Discover(context.Background(), &ts.Dataset{}, Options{}); err == nil {
		t.Fatal("empty dataset should error")
	}
	oneClass := plantedDataset(5, 40, 1, 12)
	if _, err := Discover(context.Background(), oneClass, smallOptions(13)); err == nil {
		t.Fatal("one-class dataset should error")
	}
}

func TestFitPredictAccuracy(t *testing.T) {
	train := plantedDataset(12, 80, 2, 14)
	test := plantedDataset(12, 80, 2, 15)
	acc, m, err := Evaluate(context.Background(), train, test, smallOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	if acc < 80 {
		t.Fatalf("accuracy on planted data = %v%%", acc)
	}
	if m == nil || m.SVM == nil || m.Scaler == nil {
		t.Fatal("model incomplete")
	}
	// Predict shape.
	pred, err := m.Predict(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != test.Len() {
		t.Fatalf("pred len = %d", len(pred))
	}
}

func TestDTvsRawAccuracyComparable(t *testing.T) {
	// Fig. 10(c): accuracy with and without DT&CR should be similar.
	train := plantedDataset(10, 60, 2, 17)
	test := plantedDataset(10, 60, 2, 18)
	opt := smallOptions(19)
	accDT, _, err := Evaluate(context.Background(), train, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.DisableDT = true
	opt.DisableCR = true
	accRaw, _, err := Evaluate(context.Background(), train, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(accDT-accRaw) > 35 {
		t.Fatalf("DT accuracy %v vs raw %v diverge wildly", accDT, accRaw)
	}
}

func TestDiscoverOnGeneratedUCR(t *testing.T) {
	m, err := ucr.Find("ItalyPowerDemand")
	if err != nil {
		t.Fatal(err)
	}
	train, test := ucr.Generate(m, ucr.GenConfig{MaxTest: 100, Seed: 20})
	// Mean of three runs, matching the paper's multi-run protocol.
	var sum float64
	for _, seed := range []int64{1, 2, 3} {
		opt := Options{
			IP:   ip.Config{QN: 10, QS: 3, Seed: seed},
			DABF: dabf.Config{Seed: seed},
			K:    5,
		}
		acc, _, err := Evaluate(context.Background(), train, test, opt)
		if err != nil {
			t.Fatal(err)
		}
		sum += acc
	}
	if mean := sum / 3; mean < 70 {
		t.Fatalf("IPS mean accuracy on generated ItalyPowerDemand = %v%%", mean)
	}
}

func TestDiscoverDeterministic(t *testing.T) {
	d := plantedDataset(8, 60, 2, 22)
	r1, err := Discover(context.Background(), d, smallOptions(23))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Discover(context.Background(), d, smallOptions(23))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Shapelets) != len(r2.Shapelets) {
		t.Fatal("shapelet counts differ across identical runs")
	}
	for i := range r1.Shapelets {
		a, b := r1.Shapelets[i], r2.Shapelets[i]
		if a.Class != b.Class || len(a.Values) != len(b.Values) {
			t.Fatal("shapelets differ across identical runs")
		}
		for j := range a.Values {
			if a.Values[j] != b.Values[j] {
				t.Fatal("shapelet values differ across identical runs")
			}
		}
	}
}
