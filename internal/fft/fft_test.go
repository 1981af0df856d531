package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"ips/internal/ts"
)

func TestForwardKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := []complex128{1, 0, 0, 0}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v", i, v)
		}
	}
	// FFT of a constant is an impulse at DC.
	x = []complex128{1, 1, 1, 1}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-4) > 1e-12 {
		t.Fatalf("DC = %v", x[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Fatalf("bin %d = %v", i, x[i])
		}
	}
}

func TestForwardMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := naiveDFT(x)
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d: %v vs %v", i, x[i], want[i])
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k*j) / float64(n)
			out[k] += x[j] * cmplx.Exp(complex(0, angle))
		}
	}
	return out
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 128} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		if err := Inverse(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d round trip differs at %d", n, i)
			}
		}
	}
}

func TestNonPowerOfTwoRejected(t *testing.T) {
	x := make([]complex128, 6)
	if err := Forward(x); err == nil {
		t.Fatal("length 6 should be rejected")
	}
	if err := Inverse(x); err == nil {
		t.Fatal("length 6 should be rejected")
	}
	if err := Forward(nil); err != nil {
		t.Fatal("empty input should be a no-op")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSlidingDotsMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ m, n int }{{3, 10}, {16, 200}, {50, 51}} {
		q := make([]float64, tc.m)
		series := make([]float64, tc.n)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for i := range series {
			series[i] = rng.NormFloat64()
		}
		f, err := NewFT(series, NextPow2(tc.n+tc.m-1))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, tc.n-tc.m+1)
		if _, err := f.SlidingDotsInto(q, got, nil); err != nil {
			t.Fatal(err)
		}
		want := ts.SlidingDots(q, series)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("m=%d n=%d dots[%d]: %v vs %v", tc.m, tc.n, i, got[i], want[i])
			}
		}
	}
	f, err := NewFT([]float64{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SlidingDotsInto([]float64{1, 2, 3}, make([]float64, 1), nil); err == nil {
		t.Fatal("query longer than series should be rejected")
	}
}

// Property: Parseval's theorem — energy is preserved by the transform.
func TestParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(6))
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		if err := Forward(x); err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return ts.ApproxEqual(timeEnergy, freqEnergy, 1e-6*(1+timeEnergy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := make([]complex128, len(x))
		copy(buf, x)
		Forward(buf)
	}
}
