package mp

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestConcurrentJoinsSharedArena runs several parallel self- and AB-joins
// at once, all drawing partial-profile buffers from the shared package
// arena.  Under `go test -race` (the CI configuration) this gives the race
// detector the full surface to bite on: concurrent arena Get/Put and the
// pool dealing tiles to each join's workers.  Every concurrent result must
// stay byte-identical to the sequential reference — corruption from a
// recycled buffer would show up as a profile diff even when the scheduler
// happens to hide the race itself.
func TestConcurrentJoinsSharedArena(t *testing.T) {
	series := randomSeries(400, 21)
	other := randomSeries(300, 22)
	w := 16
	selfRef := selfJoin(t, series, w, nil, 1)
	abRef := abJoin(t, series, other, w, nil, nil, 1)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workers := 1 + g%4
			sp, err := SelfJoinCtx(context.Background(), series, w, nil, Options{Workers: workers})
			if err != nil {
				errs <- err.Error()
				return
			}
			for i := range sp.P {
				if math.Float64bits(sp.P[i]) != math.Float64bits(selfRef.P[i]) || sp.I[i] != selfRef.I[i] {
					errs <- "self-join diverged under concurrency"
					return
				}
			}
			ab, err := ABJoinCtx(context.Background(), series, other, w, nil, nil, Options{Workers: workers})
			if err != nil {
				errs <- err.Error()
				return
			}
			for i := range ab.P {
				if math.Float64bits(ab.P[i]) != math.Float64bits(abRef.P[i]) || ab.I[i] != abRef.I[i] {
					errs <- "ab-join diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
