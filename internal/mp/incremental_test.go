package mp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ips/internal/errs"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// mustIncremental builds an Incremental or fails the test.
func mustIncremental(t testing.TB, initial []float64, w int) *Incremental {
	t.Helper()
	inc, err := NewIncremental(initial, w)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	return inc
}

// mustAppend appends or fails the test.
func mustAppend(t testing.TB, inc *Incremental, v float64) {
	t.Helper()
	if err := inc.Append(v); err != nil {
		t.Fatalf("Append(%v): %v", v, err)
	}
}

// profilesEqual asserts got and want are byte-identical: every distance
// bitwise equal (math.Float64bits, so Inf and negative-zero distinctions
// count) and every neighbour index equal.
func profilesEqual(t testing.TB, got, want *Profile, step int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: len %d != %d", step, got.Len(), want.Len())
	}
	for j := range want.P {
		if math.Float64bits(got.P[j]) != math.Float64bits(want.P[j]) {
			t.Fatalf("step %d: P[%d] = %v (%#x) != %v (%#x)", step, j,
				got.P[j], math.Float64bits(got.P[j]), want.P[j], math.Float64bits(want.P[j]))
		}
		if got.I[j] != want.I[j] {
			t.Fatalf("step %d: I[%d] = %d != %d (P = %v)", step, j, got.I[j], want.I[j], want.P[j])
		}
	}
}

// TestIncrementalByteIdentity is the STOMPI contract test: after EVERY
// append the incremental profile must be byte-identical — bitwise distances
// and equal neighbour indices — to a full SelfJoinCtx recompute over the
// current series.  Constant runs exercise the degenerate-window guards on
// the same footing.
func TestIncrementalByteIdentity(t *testing.T) {
	cases := []struct {
		name   string
		series []float64
		w      int
	}{
		{"random", randomSeries(160, 10), 9},
		{"tiny-window", randomSeries(90, 3), 1},
		{"window-2", randomSeries(90, 5), 2},
		{"large-window", randomSeries(120, 21), 40},
		{"constant-run", append(append(randomSeries(50, 4), make([]float64, 30)...), randomSeries(40, 6)...), 8},
		{"all-constant", make([]float64, 60), 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inc := mustIncremental(t, nil, tc.w)
			for step, v := range tc.series {
				mustAppend(t, inc, v)
				profilesEqual(t, inc.Profile(), selfJoin(t, inc.Series(), tc.w, nil, 1), step)
			}
		})
	}
}

// TestIncrementalSeedMatchesBatch pins the other construction path: seeding
// from a non-empty initial series, then appending, is byte-identical too.
func TestIncrementalSeedMatchesBatch(t *testing.T) {
	series := randomSeries(120, 10)
	w := 9
	inc := mustIncremental(t, series[:40], w)
	profilesEqual(t, inc.Profile(), selfJoin(t, series[:40], w, nil, 1), 0)
	for k, v := range series[40:] {
		mustAppend(t, inc, v)
		profilesEqual(t, inc.Profile(), selfJoin(t, series[:41+k], w, nil, 1), k+1)
	}
	if inc.Len() != len(series) {
		t.Fatalf("len = %d", inc.Len())
	}
}

func TestIncrementalFromEmpty(t *testing.T) {
	series := randomSeries(50, 11)
	w := 6
	inc := mustIncremental(t, nil, w)
	for _, v := range series {
		mustAppend(t, inc, v)
	}
	profilesEqual(t, inc.Profile(), selfJoin(t, series, w, nil, 1), len(series))
}

func TestIncrementalShortSeries(t *testing.T) {
	inc := mustIncremental(t, []float64{1, 2}, 8)
	mustAppend(t, inc, 3)
	if inc.Profile().Len() != 0 {
		t.Fatal("series shorter than window should have empty profile")
	}
	if inc.MinIndex() != -1 || inc.MaxIndex() != -1 {
		t.Fatal("motif/discord of an empty profile should be -1")
	}
}

// TestIncrementalBadInput pins the typed-rejection contract: NaN/Inf
// values — at construction or on append — come back as errs.ErrBadInput,
// a rejected append leaves the state untouched, and the stream remains
// usable afterwards.
func TestIncrementalBadInput(t *testing.T) {
	if _, err := NewIncremental([]float64{1, 2}, 0); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("w=0: err = %v, want ErrBadInput", err)
	}
	if _, err := NewIncremental([]float64{1, math.NaN(), 3}, 2); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("NaN initial: err = %v, want ErrBadInput", err)
	}
	if _, err := NewIncremental([]float64{1, math.Inf(-1)}, 2); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("-Inf initial: err = %v, want ErrBadInput", err)
	}

	series := randomSeries(40, 3)
	w := 5
	inc := mustIncremental(t, series, w)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := inc.Append(bad); !errors.Is(err, errs.ErrBadInput) {
			t.Fatalf("Append(%v): err = %v, want ErrBadInput", bad, err)
		}
	}
	if inc.Len() != len(series) {
		t.Fatalf("rejected appends mutated state: len = %d", inc.Len())
	}
	// The stream stays usable: further good appends still match the batch.
	mustAppend(t, inc, 0.25)
	profilesEqual(t, inc.Profile(), selfJoin(t, inc.Series(), w, nil, 1), len(series)+1)
}

// TestIncrementalAppendNoAllocs pins the serving-path contract: after
// Reserve, the append kernel allocates nothing.
func TestIncrementalAppendNoAllocs(t *testing.T) {
	series := randomSeries(512, 9)
	inc := mustIncremental(t, series, 16)
	extra := randomSeries(200, 10)
	inc.Reserve(len(series) + len(extra))
	k := 0
	avg := testing.AllocsPerRun(len(extra)-1, func() {
		mustAppend(t, inc, extra[k])
		k++
	})
	if avg != 0 {
		t.Fatalf("Append allocates %.1f times per call after Reserve, want 0", avg)
	}
}

// TestIncrementalMotifDiscord exercises the drift accessors against the
// batch profile's own argmin/argmax.
func TestIncrementalMotifDiscord(t *testing.T) {
	series := randomSeries(200, 12)
	w := 10
	inc := mustIncremental(t, series, w)
	want := selfJoin(t, series, w, nil, 1)
	wantMin, wantMinD := want.MinIndex()
	wantMax, _ := want.MaxIndex()
	if got := inc.MinIndex(); got != wantMin {
		t.Fatalf("MinIndex = %d, want %d", got, wantMin)
	}
	if got := inc.MaxIndex(); got != wantMax {
		t.Fatalf("MaxIndex = %d, want %d", got, wantMax)
	}
	if d := inc.DistAt(inc.MinIndex()); math.Float64bits(d) != math.Float64bits(wantMinD) {
		t.Fatalf("DistAt(motif) = %v, want %v", d, wantMinD)
	}
}

// oracleIncremental is the three-pass STOMPI append the one-walk kernel
// replaced, kept as the reference it must match bit for bit: the dot row
// updated downward, then an upward min pass that divides in every cell, then
// MinIndex and MaxIndex as linear scans of the squared profile (see
// requireMotifDiscord).
type oracleIncremental struct {
	t           []float64
	w, excl     int
	p           []float64
	i           []int
	means, stds []float64
	roll        ts.Rolling
	dots        []float64
}

func (o *oracleIncremental) append(v float64) {
	o.t = append(o.t, v)
	n := len(o.t) - o.w + 1
	if n <= 0 {
		return
	}
	newIdx := n - 1
	w := o.w
	t := o.t
	if newIdx == 0 {
		o.roll = ts.NewRolling(t[:w])
	} else {
		o.roll.Advance(t[newIdx-1], t[newIdx+w-1])
	}
	m, s := o.roll.MeanStd()
	o.means = append(o.means, m)
	o.stds = append(o.stds, s)
	o.dots = append(o.dots, 0)
	for j := newIdx; j >= 1; j-- {
		o.dots[j] = rollDot(o.dots[j-1], t[j-1], t[newIdx-1], t[j+w-1], t[newIdx+w-1])
	}
	o.dots[0] = ts.Dot(t[:w], t[newIdx:newIdx+w])
	best, bestJ := math.Inf(1), -1
	fw := float64(w)
	for j := 0; j < newIdx-o.excl; j++ {
		num, den := ts.CorrTerms(o.dots[j], fw, o.means[j], o.stds[j], m, s)
		d := ts.ZNormSqDistFromTerms(num, den, fw, o.stds[j], s)
		if d < best {
			best, bestJ = d, j
		}
		if d < o.p[j] {
			o.p[j] = d
			o.i[j] = newIdx
		}
	}
	o.p = append(o.p, best)
	o.i = append(o.i, bestJ)
}

// requireOracleState asserts inc holds the oracle's squared profile, bit for
// bit, and its motif and discord.
func requireOracleState(t *testing.T, inc *Incremental, o *oracleIncremental, label string) {
	t.Helper()
	if len(inc.p) != len(o.p) {
		t.Fatalf("%s: %d windows, want %d", label, len(inc.p), len(o.p))
	}
	for j := range o.p {
		if math.Float64bits(inc.p[j]) != math.Float64bits(o.p[j]) || inc.i[j] != o.i[j] {
			t.Fatalf("%s: (p[%d], i[%d]) = (%v, %d), want (%v, %d)", label, j, j, inc.p[j], inc.i[j], o.p[j], o.i[j])
		}
	}
	requireMotifDiscord(t, inc, o.p, label)
}

// requireMotifDiscord asserts inc's MinIndex and MaxIndex name what
// Profile's linear scans find over the squared profile p, the scans
// Incremental's own methods ran before its append walk kept them.
func requireMotifDiscord(t *testing.T, inc *Incremental, p []float64, label string) {
	t.Helper()
	scan := &Profile{P: p}
	if want, _ := scan.MinIndex(); inc.MinIndex() != want {
		t.Fatalf("%s: MinIndex = %d, a scan of the profile says %d", label, inc.MinIndex(), want)
	}
	if want, _ := scan.MaxIndex(); inc.MaxIndex() != want {
		t.Fatalf("%s: MaxIndex = %d, a scan of the profile says %d", label, inc.MaxIndex(), want)
	}
}

// italyStream returns the first n points of the stream workload's first
// session at seed 1: the synthetic ItalyPowerDemand test split, its
// instances concatenated in a seeded order.
func italyStream(tb testing.TB, n int) []float64 {
	tb.Helper()
	meta, ok := ucr.Lookup("ItalyPowerDemand")
	if !ok {
		tb.Fatal("ItalyPowerDemand not in the synthetic archive")
	}
	_, test := ucr.Generate(meta, ucr.GenConfig{Seed: 1})
	rng := rand.New(rand.NewSource(1000))
	var series []float64
	for _, i := range rng.Perm(test.Len()) {
		series = append(series, test.Instances[i].Values...)
	}
	if len(series) < n {
		tb.Fatalf("the session has %d points, want %d", len(series), n)
	}
	return series[:n]
}

// flatRunSeries returns about 200 points that alternate runs of one value
// and runs of noise, on an offset whose rounding leaves constant windows a
// tiny or zero std and a num of either sign: a constant window's floor must
// stay −Inf, or its cells, whose quotient means nothing, are skipped where
// their distance 2w would have won.
func flatRunSeries(seed int64) ([]float64, int) {
	rng := rand.New(rand.NewSource(seed))
	w := 3 + rng.Intn(10)
	offset := []float64{0, 0.5, 1e3 + 0.1, 1e6 + 0.37, 7.25}[rng.Intn(5)]
	var series []float64
	for len(series) < 200 {
		run := w + rng.Intn(2*w)
		if rng.Intn(2) == 0 {
			level := offset + float64(rng.Intn(3))
			for k := 0; k < run; k++ {
				series = append(series, level)
			}
		} else {
			for k := 0; k < run; k++ {
				series = append(series, offset+rng.NormFloat64())
			}
		}
	}
	return series, w
}

// TestIncrementalMatchesOracle pins the one-walk append, with its floor
// test and its kept motif and discord, to the three-pass append it
// replaced: after every append, bit-equal squared distances, equal
// neighbours, and equal MinIndex and MaxIndex.  The cases are the unmasked
// self-join oracle cases (every diagonal-count remainder, constant runs,
// integer levels with ties, 1e180 scale), series where one point crosses
// the w·t² < 2¹⁰⁰⁰ floor bound mid-stream, windows 1 to 4, runs of
// constant windows among noise, and the stream workload's series at its
// window.
func TestIncrementalMatchesOracle(t *testing.T) {
	type stream struct {
		name   string
		series []float64
		w      int
	}
	var cases []stream
	for _, tc := range oracleCases(t) {
		if tc.valid == nil {
			cases = append(cases, stream{tc.name, tc.t, tc.w})
		}
	}
	for _, big := range []float64{1e150, 4e150, -1e151, 1e160, 1e300} {
		series := randomSeries(200, 23)
		series[120] = big
		cases = append(cases, stream{fmt.Sprintf("crosses-bound/%g", big), series, 8})
	}
	for w := 1; w <= 4; w++ {
		cases = append(cases, stream{fmt.Sprintf("small-window/w=%d", w), randomSeries(150, int64(40+w)), w})
		levels := make([]float64, 150)
		rng := rand.New(rand.NewSource(int64(w)))
		for i := range levels {
			levels[i] = float64(rng.Intn(3))
		}
		cases = append(cases, stream{fmt.Sprintf("small-window-levels/w=%d", w), levels, w})
	}
	for seed := int64(0); seed < 200; seed++ {
		series, w := flatRunSeries(seed)
		cases = append(cases, stream{fmt.Sprintf("flat-runs/%d/w=%d", seed, w), series, w})
	}
	cases = append(cases, stream{"italy/w=24", italyStream(t, 4000), 24})

	for _, tc := range cases {
		inc := mustIncremental(t, nil, tc.w)
		o := &oracleIncremental{w: tc.w, excl: max(tc.w/2, 1)}
		for step, v := range tc.series {
			mustAppend(t, inc, v)
			o.append(v)
			requireOracleState(t, inc, o, fmt.Sprintf("%s/step=%d", tc.name, step))
		}
	}
}

// BenchmarkIncrementalAppend measures one stream step at steady state: an
// Append after Reserve, then MinIndex and MaxIndex, as stream.Stream reads
// them after every point.  The w = 24 cases are the stream workload's
// window at half and all of its 24,696-point sessions.
func BenchmarkIncrementalAppend(b *testing.B) {
	for _, bc := range []struct{ n, w int }{{1000, 50}, {4000, 50}, {16000, 50}, {12000, 24}, {24000, 24}} {
		b.Run(fmt.Sprintf("n=%d/w=%d", bc.n, bc.w), func(b *testing.B) {
			series := randomSeries(bc.n, 12)
			extra := randomSeries(b.N, 13)
			inc, err := NewIncremental(series, bc.w)
			if err != nil {
				b.Fatal(err)
			}
			inc.Reserve(len(series) + b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := inc.Append(extra[i]); err != nil {
					b.Fatal(err)
				}
				if inc.MinIndex() < 0 || inc.MaxIndex() < 0 {
					b.Fatal("no motif or discord")
				}
			}
		})
	}
}
