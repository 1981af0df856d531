// Package dabf implements the distribution-aware bloom filter of §III-B/C of
// the IPS paper (Algorithms 2 and 3), together with the classic Bloom
// filter [4] it generalises (BSPCOVER's filter) and the naive quadratic
// pruning method it is compared against (Table V, Fig. 10a).
package dabf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Bloom is a classic Bloom filter over byte-string keys: queries answer
// "possibly in the set" or "definitely not in the set".
type Bloom struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
}

// NewBloom sizes a Bloom filter for the expected number of elements and
// target false-positive probability.
func NewBloom(expected int, fpRate float64) *Bloom {
	if expected < 1 {
		expected = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	mBits := math.Ceil(-float64(expected) * math.Log(fpRate) / (math.Ln2 * math.Ln2))
	k := int(math.Round(mBits / float64(expected) * math.Ln2))
	if k < 1 {
		k = 1
	}
	m := uint64(mBits)
	if m < 64 {
		m = 64
	}
	return &Bloom{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// hashPair derives two independent 64-bit hashes of key; the k probe
// positions are the standard Kirsch–Mitzenmacher combination h1 + i·h2.
func hashPair(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 := h.Sum64()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], h1)
	h.Reset()
	h.Write(buf[:])
	h.Write(key)
	return h1, h.Sum64()
}

// Add inserts key into the filter.
func (b *Bloom) Add(key []byte) {
	h1, h2 := hashPair(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

// Contains reports whether key is possibly in the set.  A false return is
// definitive.
func (b *Bloom) Contains(key []byte) bool {
	h1, h2 := hashPair(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
