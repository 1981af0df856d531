// Package fft implements the radix-2 Cooley–Tukey fast Fourier transform
// behind the fft kernel of the Def. 4 distance engine (internal/dist): FT
// holds a series' padded forward transform, and FT.SlidingDotsInto slides a
// query over it in O(n log n).  Transform lengths must be powers of two.
package fft

import (
	"errors"
	"math"
	"math/bits"
)

// Forward computes the in-place FFT of x, whose length must be a power of
// two (including 1).
func Forward(x []complex128) error {
	if err := checkLen(len(x)); err != nil {
		return err
	}
	dft(x, false)
	return nil
}

// Inverse computes the in-place inverse FFT of x (scaled by 1/len(x)),
// whose length must be a power of two.
func Inverse(x []complex128) error {
	if err := checkLen(len(x)); err != nil {
		return err
	}
	idft(x)
	return nil
}

func checkLen(n int) error {
	if n&(n-1) != 0 {
		return errors.New("fft: length must be a power of two")
	}
	return nil
}

// idft is the unchecked inverse transform with 1/n scaling; len(x) must be
// a power of two.
func idft(x []complex128) {
	dft(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

// dft is the unchecked transform core; len(x) must be a power of two.
func dft(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		angle := 2 * math.Pi / float64(size)
		if !inverse {
			angle = -angle
		}
		wStep := complex(math.Cos(angle), math.Sin(angle))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// FT is the forward transform of a real series zero-padded to a fixed
// power-of-two length, precomputed once and reused across convolutions.
// Batch callers that slide many queries against the same series (the Def. 4
// engine in internal/dist) pay the series transform once and each query then
// costs two transforms instead of three.  FT is immutable after construction
// and safe for concurrent use.
type FT struct {
	size int          // power-of-two transform length
	n    int          // original series length
	freq []complex128 // forward transform of the zero-padded series
}

// NewFT computes the padded forward transform of t.  size must be a power of
// two with size >= len(t)+m-1 for every query length m the caller intends to
// slide (padding beyond the minimum is harmless for linear convolution).
func NewFT(t []float64, size int) (*FT, error) {
	if err := checkLen(size); err != nil {
		return nil, err
	}
	if size < len(t) {
		return nil, errors.New("fft: transform size smaller than series")
	}
	freq := make([]complex128, size)
	for i, v := range t {
		freq[i] = complex(v, 0)
	}
	dft(freq, false)
	return &FT{size: size, n: len(t), freq: freq}, nil
}

// Size returns the transform length.
func (f *FT) Size() int { return f.size }

// SeriesLen returns the length of the series the transform was built from.
func (f *FT) SeriesLen() int { return f.n }

// SlidingDotsInto computes dot(q, t[j:j+len(q)]) for every window j of the
// prepared series into out, which must hold len(t)-len(q)+1 values.  scratch
// is an optional reusable buffer; when its capacity is at least Size() it is
// used in place, otherwise a new one is allocated.  The (possibly new)
// scratch is returned so callers can thread it through a query loop.
func (f *FT) SlidingDotsInto(q, out []float64, scratch []complex128) ([]complex128, error) {
	m := len(q)
	w := f.n - m + 1
	if m == 0 || w <= 0 {
		return scratch, errors.New("fft: query length out of range")
	}
	if m+f.n-1 > f.size {
		return scratch, errors.New("fft: transform size too small for query")
	}
	if len(out) < w {
		return scratch, errors.New("fft: output shorter than window count")
	}
	if cap(scratch) < f.size {
		scratch = make([]complex128, f.size)
	}
	scratch = scratch[:f.size]
	// Reversed query followed by zero padding: convolution with the reversed
	// query is correlation, and the aligned dots live at offsets m-1..m-1+w-1.
	for i, v := range q {
		scratch[m-1-i] = complex(v, 0)
	}
	for i := m; i < f.size; i++ {
		scratch[i] = 0
	}
	dft(scratch, false)
	for i := range scratch {
		scratch[i] *= f.freq[i]
	}
	idft(scratch)
	for j := 0; j < w; j++ {
		out[j] = real(scratch[m-1+j])
	}
	return scratch, nil
}
