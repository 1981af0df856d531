package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"ips/internal/dabf"
	"ips/internal/ip"
	"ips/internal/obs"
	"ips/internal/ucr"
)

// pruneSelectGolden holds the SHA-256 of pruneSelectDigest per dataset.  The
// digests were taken before DABF and naive pruning shared one prune loop and
// the raw and DT utilities shared one utility loop, so they pin both loops
// bit for bit to the code they replaced.
var pruneSelectGolden = map[string]string{
	"ItalyPowerDemand": "4c9af3dead7acf6443909766d9d72ee0e73d59c929c31fba1cc54b4b4a7cff88",
	"GunPoint":         "a18fc4e076d77793f19d3c9e54c4a75d7558456d3a433b64f32ea8e5f4f62cab",
	"CBF":              "3dcdbe3727013280a1a31e783ab8c0757e3a18dbc6dc9b55b9bf10b3e6fe294d",
	"ArrowHead":        "19171934af6a670ae844c01f94fae7f5fa938f39f90948f4d6e419e0cf08aa52",
}

// TestPruneSelectGoldenDigest pins the pruned pools of both pruning paths
// and the shapelets of every (DT, CR) selection from each pool on four
// quick-scale datasets, at default configs and seed 1.
func TestPruneSelectGoldenDigest(t *testing.T) {
	names := make([]string, 0, len(pruneSelectGolden))
	for name := range pruneSelectGolden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if got := pruneSelectDigest(t, name); got != pruneSelectGolden[name] {
				t.Fatalf("digest %s, want %s", got, pruneSelectGolden[name])
			}
		})
	}
}

// TestDiscoverWithoutDABFRecordsPruneCounters checks that naive pruning,
// which shares the DABF's prune loop, publishes the same dabf.prune.*
// counters to the run's observer.
func TestDiscoverWithoutDABFRecordsPruneCounters(t *testing.T) {
	train, _, err := ucr.GenerateByName("ItalyPowerDemand", ucr.GenConfig{MaxTrain: 30, MaxLength: 160, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New("test")
	res, err := Discover(context.Background(), train, Options{DisableDABF: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	reg := o.Metrics()
	if got := reg.Counter("dabf.prune.examined").Value(); got == 0 || got != int64(res.PruneStats.Examined) {
		t.Fatalf("dabf.prune.examined = %d, PruneStats.Examined = %d", got, res.PruneStats.Examined)
	}
	if got := reg.Counter("dabf.prune.passed").Value(); got != int64(res.PruneStats.Passed) {
		t.Fatalf("dabf.prune.passed = %d, PruneStats.Passed = %d", got, res.PruneStats.Passed)
	}
}

// pruneSelectDigest hashes, for the DABF pool and then the naive pool: each
// class's candidates (class, kind, sample, start, value bits) in class order,
// the pool's Examined and Pruned counts, and the shapelets (class, value
// bits, score bits) of the four (UseDT, UseCR) selections from it.  Both
// selections use the DABF built from the whole candidate pool.
func pruneSelectDigest(t *testing.T, name string) string {
	t.Helper()
	ctx := context.Background()
	train, _, err := ucr.GenerateByName(name, ucr.GenConfig{MaxTrain: 30, MaxLength: 160, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := ip.GenerateSpan(ctx, train, ip.Config{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dabf.BuildSpan(ctx, pool, dabf.Config{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, fastSt, err := dabf.PruneSpan(ctx, pool, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, naiveSt, err := dabf.NaivePrune(ctx, pool, dabf.Config{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range []struct {
		pool *ip.Pool
		st   dabf.PruneStats
	}{{fast, fastSt}, {naive, naiveSt}} {
		classes := p.pool.Classes()
		sort.Ints(classes)
		for _, c := range classes {
			digestInts(h, c, len(p.pool.ByClass[c]))
			for _, cand := range p.pool.ByClass[c] {
				digestInts(h, cand.Class, int(cand.Kind), cand.Sample, cand.Start, len(cand.Values))
				digestFloats(h, cand.Values...)
			}
		}
		digestInts(h, p.st.Examined, p.st.Pruned)
		for _, useDT := range []bool{false, true} {
			for _, useCR := range []bool{false, true} {
				sh, err := SelectTopK(ctx, p.pool, train, d, SelectionConfig{UseDT: useDT, UseCR: useCR})
				if err != nil {
					t.Fatal(err)
				}
				digestInts(h, len(sh))
				for _, s := range sh {
					digestInts(h, s.Class, len(s.Values))
					digestFloats(h, s.Values...)
					digestFloats(h, s.Score)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestInts(h hash.Hash, vs ...int) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(v))))
	}
}

func digestFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}
