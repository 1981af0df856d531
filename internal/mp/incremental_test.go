package mp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ips/internal/errs"
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

// BenchmarkIncrementalAppend measures steady-state per-append cost across
// series lengths.  The bug this PR fixes made each append pay a full
// MovingMeanStd + FFT SlidingDots pass, so per-append time grew with n·log n
// and allocated; now it is a pair of O(n) passes with zero allocations.
func BenchmarkIncrementalAppend(b *testing.B) {
	for _, size := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d/w=50", size), func(b *testing.B) {
			series := randomSeries(size, 12)
			extra := randomSeries(b.N, 13)
			inc, err := NewIncremental(series, 50)
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
			}
		})
	}
}
