package dist

import (
	"encoding/binary"
	"math"
	"testing"

	"ips/internal/ts"
)

// fuzzFloatsCapped decodes 8-byte chunks as float64s, remapping NaN/±Inf and
// overflow-scale magnitudes (>1e100) to small finite stand-ins.  The cap
// keeps every intermediate — window energies, cross terms, squared diffs —
// finite, so the fuzz exercises the rolling kernel rather than the ts.Dist fallback
// the engine routes non-finite data to (that fallback is pinned separately
// in TestDegenerateInputs).
func fuzzFloatsCapped(data []byte) []float64 {
	n := len(data) / 8
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		bits := binary.LittleEndian.Uint64(data[i*8:])
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			v = float64(int32(bits))
		}
		out = append(out, v)
	}
	return out
}

// FuzzDist cross-checks the Def. 4 implementations on arbitrary finite
// input: ts.Dist (the reference), Prepared.Dist and the batch engine, both
// byte-identical to the reference by contract.
func FuzzDist(f *testing.F) {
	f.Add([]byte{3})
	seed := make([]byte, 1+8*24)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	seed[0] = 8
	f.Add(seed)
	constant := make([]byte, 1+8*16)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(constant[1+i*8:], math.Float64bits(2.5))
	}
	constant[0] = 4
	f.Add(constant)
	// Rows of at least 16 windows reach the AVX pass on a CPU that has it:
	// 64 values split at 12 (41 windows) and 40 split at 24 (17 windows).
	for _, sh := range [][2]int{{64, 12}, {40, 24}} {
		row := make([]byte, 1+8*sh[0])
		row[0] = byte(sh[1])
		for i := 0; i < sh[0]; i++ {
			binary.LittleEndian.PutUint64(row[1+i*8:], math.Float64bits(math.Sin(float64(i)*0.7)*float64(1+i%5)))
		}
		f.Add(row)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 1+8*256 {
			return // keep execs cheap: 256 points already spans both rolling passes
		}
		vals := fuzzFloatsCapped(data[1:])
		if len(vals) == 0 {
			return
		}
		split := int(data[0]) % (len(vals) + 1)
		q, series := vals[:split], vals[split:]
		want := ts.Dist(q, series)

		p := Prepare(series)
		if got := p.Dist(q); !bitsEqual(got, want) {
			t.Fatalf("Dist = %v (bits %x), ts.Dist = %v (bits %x), m=%d n=%d",
				got, math.Float64bits(got), want, math.Float64bits(want), len(q), len(series))
		}
		b := NewBatch([][]float64{q})
		if out := evalInto(t, b, p, make([]float64, 1), nil); !bitsEqual(out[0], want) {
			t.Fatalf("batch = %v (bits %x), ts.Dist = %v (bits %x), m=%d n=%d",
				out[0], math.Float64bits(out[0]), want, math.Float64bits(want), len(q), len(series))
		}
	})
}
