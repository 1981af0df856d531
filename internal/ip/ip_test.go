package ip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ips/internal/mp"
	"ips/internal/ts"
)

// makeDataset builds a two-class dataset where class 0 instances contain a
// distinctive planted pattern and class 1 instances are pure noise.
func makeDataset(nPerClass, length int, seed int64) *ts.Dataset {
	rng := rand.New(rand.NewSource(seed))
	pattern := []float64{0, 3, 6, 3, 0, -3, -6, -3, 0, 3, 6, 3}
	d := &ts.Dataset{Name: "synthetic"}
	for c := 0; c < 2; c++ {
		for i := 0; i < nPerClass; i++ {
			vals := make(ts.Series, length)
			for j := range vals {
				vals[j] = rng.NormFloat64() * 0.3
			}
			if c == 0 {
				at := 5 + rng.Intn(length-len(pattern)-10)
				copy(vals[at:], pattern)
			}
			d.Instances = append(d.Instances, ts.Instance{Values: vals, Label: c})
		}
	}
	return d
}

func TestKindString(t *testing.T) {
	if Motif.String() != "motif" || Discord.String() != "discord" {
		t.Fatal("kind strings wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.QN != 10 || c.QS != 3 || len(c.LengthRatios) != 5 || c.MinLength != 4 {
		t.Fatalf("defaults = %+v", c)
	}
	// Explicit values survive.
	c = Config{QN: 2, QS: 5, LengthRatios: []float64{0.5}, MinLength: 8}.Defaults()
	if c.QN != 2 || c.QS != 5 || len(c.LengthRatios) != 1 || c.MinLength != 8 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
}

func TestLengths(t *testing.T) {
	c := Config{LengthRatios: []float64{0.1, 0.2, 0.5}, MinLength: 4}
	got := c.Lengths(100)
	want := []int{10, 20, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lengths = %v, want %v", got, want)
		}
	}
	// Flooring and dedup: tiny series collapse to MinLength once.
	got = Config{LengthRatios: []float64{0.1, 0.2}, MinLength: 4}.Lengths(10)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("floored lengths = %v, want [4]", got)
	}
	// A series shorter than MinLength admits no candidate length at all;
	// Generate turns the nil into a typed bad-input error.
	got = Config{LengthRatios: []float64{0.9}, MinLength: 50}.Lengths(20)
	if got != nil {
		t.Fatalf("too-short series lengths = %v, want nil", got)
	}
}

func TestInstanceProfileExcludesBoundaries(t *testing.T) {
	ins := []ts.Instance{
		{Values: make(ts.Series, 20)},
		{Values: make(ts.Series, 20)},
	}
	rng := rand.New(rand.NewSource(1))
	for _, in := range ins {
		for j := range in.Values {
			in.Values[j] = rng.NormFloat64()
		}
	}
	L := 8
	prof, cat, err := InstanceProfile(context.Background(), ins, L, mp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 40 {
		t.Fatalf("cat len = %d", len(cat))
	}
	// Positions 13..19 span the boundary at 20 and must be +Inf.
	for i := 20 - L + 1; i < 20; i++ {
		if !math.IsInf(prof.P[i], 1) {
			t.Fatalf("boundary position %d has finite profile %v", i, prof.P[i])
		}
	}
	// Interior positions have finite values.
	if math.IsInf(prof.P[0], 1) || math.IsInf(prof.P[20], 1) {
		t.Fatal("interior positions should be finite")
	}
}

func TestGenerateFindsPlantedPattern(t *testing.T) {
	d := makeDataset(8, 60, 2)
	cfg := Config{QN: 6, QS: 3, LengthRatios: []float64{0.2}, Seed: 3}
	pool, err := GenerateSpan(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.ByClass) != 2 {
		t.Fatalf("classes in pool = %d", len(pool.ByClass))
	}
	// Each class and sample yields one motif and one discord per length.
	motifs := pool.Motifs(0)
	discords := pool.Discords(0)
	if len(motifs) != 6 || len(discords) != 6 {
		t.Fatalf("class 0: %d motifs, %d discords, want 6 each", len(motifs), len(discords))
	}
	// Class 0 motifs should be close (Def. 4) to the planted pattern.
	pattern := ts.Series{0, 3, 6, 3, 0, -3, -6, -3, 0, 3, 6, 3}
	close0 := 0
	for _, m := range motifs {
		if ts.Dist(pattern, m.Values) < 1.0 {
			close0++
		}
	}
	if close0 < len(motifs)/2 {
		t.Fatalf("only %d/%d class-0 motifs near the planted pattern", close0, len(motifs))
	}
	// Candidate metadata is populated.
	for _, m := range motifs {
		if m.Class != 0 || m.Kind != Motif || len(m.Values) != 12 {
			t.Fatalf("bad candidate metadata: %+v", m)
		}
		if m.Sample < 0 || m.Sample >= 6 || m.Start < 0 {
			t.Fatalf("bad candidate origin: %+v", m)
		}
	}
	if pool.Size() != 24 {
		t.Fatalf("pool size = %d, want 24", pool.Size())
	}
	if len(pool.Classes()) != 2 {
		t.Fatalf("pool classes = %v", pool.Classes())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := makeDataset(6, 50, 4)
	cfg := Config{QN: 3, QS: 2, LengthRatios: []float64{0.3}, Seed: 99}
	p1, err := GenerateSpan(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := GenerateSpan(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, cands := range p1.ByClass {
		other := p2.ByClass[c]
		if len(cands) != len(other) {
			t.Fatalf("class %d candidate counts differ", c)
		}
		for i := range cands {
			if cands[i].Start != other[i].Start || cands[i].Sample != other[i].Sample {
				t.Fatalf("class %d candidate %d differs across runs", c, i)
			}
		}
	}
}

func TestGenerateCandidateValuesAreCopies(t *testing.T) {
	d := makeDataset(4, 40, 5)
	pool, err := GenerateSpan(context.Background(), d, Config{QN: 2, QS: 2, LengthRatios: []float64{0.25}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating dataset values must not corrupt candidates.
	before := pool.ByClass[0][0].Values.Clone()
	for _, in := range d.Instances {
		for j := range in.Values {
			in.Values[j] = 1e9
		}
	}
	after := pool.ByClass[0][0].Values
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("candidate values alias dataset storage")
		}
	}
}

func TestGenerateParallelMatchesSequential(t *testing.T) {
	d := makeDataset(8, 60, 30)
	base := Config{QN: 6, QS: 3, LengthRatios: []float64{0.2, 0.3}, Seed: 31}
	seq, err := GenerateSpan(context.Background(), d, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		par, err := GenerateSpan(context.Background(), d, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c, want := range seq.ByClass {
			got := par.ByClass[c]
			if len(got) != len(want) {
				t.Fatalf("workers=%d class %d: %d candidates, want %d", workers, c, len(got), len(want))
			}
			for i := range want {
				if got[i].Sample != want[i].Sample || got[i].Start != want[i].Start ||
					got[i].Kind != want[i].Kind || len(got[i].Values) != len(want[i].Values) {
					t.Fatalf("workers=%d class %d candidate %d differs", workers, c, i)
				}
				for j := range want[i].Values {
					if got[i].Values[j] != want[i].Values[j] {
						t.Fatalf("workers=%d candidate values differ", workers)
					}
				}
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateSpan(context.Background(), &ts.Dataset{}, Config{}, nil); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestGenerateShortSeries(t *testing.T) {
	// Series shorter than twice MinLength still produce candidates because
	// lengths are floored at MinLength; a series shorter than MinLength
	// cannot and must error out — never panic.
	d := &ts.Dataset{Instances: []ts.Instance{
		{Values: ts.Series{1, 2, 1, 2, 1, 2, 1, 2}, Label: 0},
		{Values: ts.Series{2, 1, 2, 1, 2, 1, 2, 1}, Label: 0},
		{Values: ts.Series{5, 5, 5, 5, 6, 6, 6, 6}, Label: 1},
		{Values: ts.Series{6, 6, 6, 6, 5, 5, 5, 5}, Label: 1},
	}}
	pool, err := GenerateSpan(context.Background(), d, Config{QN: 2, QS: 2, LengthRatios: []float64{0.5}, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() == 0 {
		t.Fatal("short series produced no candidates")
	}
}
