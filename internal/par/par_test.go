package par

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunDealsEachIndexOnce: for every worker count, including the
// non-positive ones that mean one worker, and every n, each index 0…n−1 is
// dealt exactly once and work runs min(max(workers, 1), n) times, each
// worker number once.
func TestRunDealsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			dealt := make([]atomic.Int32, n)
			calls := make([]atomic.Int32, max(workers, 1))
			var running atomic.Int32
			Run(context.Background(), workers, n, func(w int, next func() (int, bool)) {
				calls[w].Add(1)
				running.Add(1)
				defer running.Add(-1)
				for i, ok := next(); ok; i, ok = next() {
					dealt[i].Add(1)
				}
				if _, ok := next(); ok {
					t.Errorf("workers=%d n=%d: next dealt again after returning false", workers, n)
				}
			})
			if r := running.Load(); r != 0 {
				t.Fatalf("workers=%d n=%d: %d work calls still running after Run returned", workers, n, r)
			}
			for i := range dealt {
				if got := dealt[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d dealt %d times, want 1", workers, n, i, got)
				}
			}
			want := min(max(workers, 1), n)
			total := 0
			for w := range calls {
				got := int(calls[w].Load())
				if w < want && got != 1 || w >= want && got != 0 {
					t.Fatalf("workers=%d n=%d: worker %d ran %d times (want %d workers in all)", workers, n, w, got, want)
				}
				total += got
			}
			if total != want {
				t.Fatalf("workers=%d n=%d: work ran %d times, want %d", workers, n, total, want)
			}
		}
	}
}

// TestRunOneWorkerOnCaller: a single worker runs on the calling goroutine,
// so work may use the caller's state without synchronisation and a panic
// in it reaches the caller.
func TestRunOneWorkerOnCaller(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 8} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want the worker's panic", workers, r)
				}
			}()
			Run(context.Background(), workers, 1, func(int, func() (int, bool)) { panic("boom") })
		}()
	}
}

// TestRunStopsDealingOnCancel: a worker cancels the context when it is
// dealt item cancelAt.  From then on each worker is dealt at most one more
// item, one it may have been dealt while the cancel was under way, and Run
// returns long before the 2³⁰ items run out.  One worker is dealt exactly
// the items up to cancelAt.
func TestRunStopsDealingOnCancel(t *testing.T) {
	const n, cancelAt = 1 << 30, 100
	for _, workers := range []int{1, 2, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var canceled atomic.Bool
		late := make([]int, workers) // items dealt to worker w after the cancel
		var dealt atomic.Int64
		Run(ctx, workers, n, func(w int, next func() (int, bool)) {
			for i, ok := next(); ok; i, ok = next() {
				dealt.Add(1)
				if canceled.Load() {
					late[w]++
				}
				if i == cancelAt {
					cancel()
					canceled.Store(true)
				}
			}
		})
		cancel()
		for w, k := range late {
			if k > 1 {
				t.Fatalf("workers=%d: worker %d was dealt %d items after the cancel, want at most 1", workers, w, k)
			}
		}
		if got := dealt.Load(); workers == 1 && got != cancelAt+1 {
			t.Fatalf("one worker was dealt %d items, want %d", got, cancelAt+1)
		}
	}
}
