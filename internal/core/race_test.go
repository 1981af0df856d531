package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ips/internal/classify"
	"ips/internal/mp"
	"ips/internal/obs"
)

// TestWorkerPoolRaceWorkers8 exercises the full fan-out surface at
// Workers=8 — candidate generation, the shapelet transform, and concurrent
// observability (spans, metrics, progress callbacks) — with two pipelines
// running at once.  Its job is to give the race detector maximal
// interleaving to bite on: under `go test -race` (the CI configuration) any
// unsynchronized access in the worker pools or the obs plumbing fails the
// run.  It also re-checks that the heavily parallel run is bit-identical to
// the sequential one, the determinism contract ipslint's analyzers guard.
func TestWorkerPoolRaceWorkers8(t *testing.T) {
	train := plantedDataset(12, 64, 3, 11)

	run := func(workers int) ([]classify.Shapelet, [][]float64) {
		o := obs.New("race")
		var progressMu sync.Mutex
		seen := map[string]int{}
		o.OnProgress(func(stage string, done, total int) {
			// A locking sink makes the callback itself race-visible work.
			progressMu.Lock()
			seen[stage]++
			progressMu.Unlock()
		})
		opt := smallOptions(11)
		opt.Workers = workers
		opt.Obs = o
		res, err := Discover(context.Background(), train, opt)
		if err != nil {
			t.Errorf("workers=%d: %v", workers, err)
			return nil, nil
		}
		X, err := classify.TransformWith(context.Background(), train, res.Shapelets,
			classify.TransformConfig{Workers: workers, Span: o.Root().Child("transform")})
		if err != nil {
			t.Errorf("workers=%d: %v", workers, err)
			return nil, nil
		}
		o.Finish()
		return res.Shapelets, X
	}

	// Two concurrent Workers=8 pipelines plus one sequential reference.
	var wg sync.WaitGroup
	results := make([][]classify.Shapelet, 2)
	features := make([][][]float64, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], features[i] = run(8)
		}(i)
	}
	wg.Wait()
	refShapelets, refFeatures := run(1)

	for i := 0; i < 2; i++ {
		if !reflect.DeepEqual(results[i], refShapelets) {
			t.Fatalf("run %d: Workers=8 shapelets differ from sequential reference", i)
		}
		if !reflect.DeepEqual(features[i], refFeatures) {
			t.Fatalf("run %d: Workers=8 features differ from sequential reference", i)
		}
	}
}

// TestKernelDeterminismAtGOMAXPROCS pins the end-to-end determinism
// contract at the machine's own parallelism: a Discover run and a raw STOMP
// self-join at Workers=GOMAXPROCS must be identical — byte-identical for
// the kernel — to the sequential reference, whatever hardware CI lands on.
func TestKernelDeterminismAtGOMAXPROCS(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2 // still exercise the pooled path on single-core machines
	}

	// Raw kernel: byte-identical profile.
	series := make([]float64, 600)
	v := 0.0
	for i := range series {
		// Deterministic pseudo-walk without seeding a global rng.
		v += math.Sin(float64(i)*0.7) + math.Cos(float64(i*i)*0.13)
		series[i] = v
	}
	ref, err := mp.SelfJoinCtx(context.Background(), series, 24, nil, mp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mp.SelfJoinCtx(context.Background(), series, 24, nil, mp.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.P {
		if math.Float64bits(got.P[i]) != math.Float64bits(ref.P[i]) || got.I[i] != ref.I[i] {
			t.Fatalf("workers=%d: kernel (P[%d],I[%d]) = (%v,%d), want (%v,%d)",
				workers, i, i, got.P[i], got.I[i], ref.P[i], ref.I[i])
		}
	}

	// Full pipeline: identical shapelets.
	train := plantedDataset(10, 64, 2, 17)
	run := func(w int) []classify.Shapelet {
		opt := smallOptions(17)
		opt.Workers = w
		res, err := Discover(context.Background(), train, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return res.Shapelets
	}
	if !reflect.DeepEqual(run(workers), run(1)) {
		t.Fatalf("Workers=%d shapelets differ from sequential reference", workers)
	}
}
