package mp

import (
	"encoding/binary"
	"math"
	"testing"

	"ips/internal/ts"
)

// fuzzSeries decodes 8-byte chunks of data as float64s.  NaN and ±Inf bit
// patterns are remapped to finite values derived from the same bits, so the
// harness explores the full finite range — including the huge magnitudes
// (|v| ≳ 1e154) whose squares overflow the sliding statistics — without
// feeding the kernels inputs they do not claim to accept.
func fuzzSeries(data []byte) []float64 {
	n := len(data) / 8
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		bits := binary.LittleEndian.Uint64(data[i*8:])
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(int32(bits)) // deterministic finite stand-in
		}
		out = append(out, v)
	}
	return out
}

// checkProfileFinite asserts the NaN/Inf contract of a join result: every
// distance is either +Inf with neighbour −1 (no valid neighbour) or a
// finite non-negative value with a neighbour in range — NaN never leaks
// into a profile, whatever the (finite) input.
func checkProfileFinite(t *testing.T, p *Profile, nNeighbours int) {
	t.Helper()
	for i, v := range p.P {
		switch {
		case math.IsNaN(v):
			t.Fatalf("P[%d] is NaN", i)
		case math.IsInf(v, 1):
			if p.I[i] != -1 {
				t.Fatalf("P[%d] = +Inf but I[%d] = %d", i, i, p.I[i])
			}
		case math.IsInf(v, -1) || v < 0:
			t.Fatalf("P[%d] = %v, want non-negative", i, v)
		default:
			if p.I[i] < 0 || p.I[i] >= nNeighbours {
				t.Fatalf("I[%d] = %d out of range [0,%d)", i, p.I[i], nNeighbours)
			}
		}
	}
}

// FuzzSelfJoin feeds arbitrary finite series — zero-variance segments,
// overflow-scale magnitudes, sub-window lengths — with an optional boundary
// mask (instances of 1 + (cut−1) mod len(series) points; cut 0 means none)
// through the tiled kernel at several worker counts, asserting the no-NaN
// contract and bit-equality with the one-diagonal oracle on every input.
func FuzzSelfJoin(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint16(0))
	f.Add(make([]byte, 8*6), uint8(3), uint16(0))                             // all-zero (constant) series
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3}, uint8(2), uint16(0)) // +Inf bit pattern remapped
	seed := make([]byte, 8*40)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(8), uint16(0))
	f.Add(seed, uint8(3), uint16(14)) // masked: instances of 14 points
	f.Fuzz(func(t *testing.T, data []byte, wRaw uint8, cut uint16) {
		if len(data) > 8*512 {
			return // keep the O(N²) join inside fuzz-time budget
		}
		series := fuzzSeries(data)
		w := 2 + int(wRaw)%64
		n := len(series) - w + 1
		var valid []bool
		if cut > 0 && n > 0 {
			var starts []int
			for s := 0; s < len(series); s += 1 + (int(cut)-1)%len(series) {
				starts = append(starts, s)
			}
			valid = ts.BoundaryMask(starts, len(series), w)
		}
		want := oracleSelfJoin(series, w, valid)
		if n <= 0 {
			if got := selfJoin(t, series, w, valid, 1); got.Len() != 0 {
				t.Fatalf("sub-window input produced %d entries", got.Len())
			}
			return
		}
		checkProfileFinite(t, want, n)
		for _, workers := range []int{1, 2, 5} {
			got := selfJoin(t, series, w, valid, workers)
			for i := range got.P {
				if math.Float64bits(got.P[i]) != math.Float64bits(want.P[i]) || got.I[i] != want.I[i] {
					t.Fatalf("workers=%d: (P[%d],I[%d]) = (%v,%d), want (%v,%d)",
						workers, i, i, got.P[i], got.I[i], want.P[i], want.I[i])
				}
			}
		}
	})
}

// FuzzIncremental cross-checks the STOMPI append path against a fresh
// SelfJoinCtx recompute: for an arbitrary finite series, an arbitrary window,
// and an arbitrary seed/append split point, the incrementally maintained
// profile must be byte-identical to the batch kernel's, and MinIndex and
// MaxIndex must name what a linear scan of that profile finds, ties to the
// lowest index.  This is the same contract TestIncrementalByteIdentity and
// TestIncrementalMatchesOracle pin on curated cases, explored over random
// shapes — zero-variance runs, overflow-scale magnitudes, windows longer
// than the series.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(0))
	f.Add(make([]byte, 8*12), uint8(3), uint8(5)) // constant series, split mid-way
	seed := make([]byte, 8*30)
	for i := range seed {
		seed[i] = byte(i * 53)
	}
	f.Add(seed, uint8(6), uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, wRaw, splitRaw uint8) {
		if len(data) > 8*256 {
			return // keep the O(N²) reference join inside fuzz-time budget
		}
		series := fuzzSeries(data)
		w := 1 + int(wRaw)%32
		split := 0
		if len(series) > 0 {
			split = int(splitRaw) % (len(series) + 1)
		}
		inc, err := NewIncremental(series[:split], w)
		if err != nil {
			t.Fatalf("NewIncremental(finite series): %v", err)
		}
		for _, v := range series[split:] {
			if err := inc.Append(v); err != nil {
				t.Fatalf("Append(%v): %v", v, err)
			}
		}
		got := inc.Profile()
		want := selfJoin(t, series, w, nil, 1)
		n := len(series) - w + 1
		if n <= 0 {
			if got.Len() != 0 {
				t.Fatalf("sub-window input produced %d entries", got.Len())
			}
			return
		}
		checkProfileFinite(t, got, n)
		profilesEqual(t, got, want, len(series))
		requireMotifDiscord(t, inc, inc.p, "last append")
	})
}
