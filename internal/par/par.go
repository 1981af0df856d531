// Package par is the worker pool behind every fan-out in the pipeline: the
// instance-profile jobs of Algorithm 1, the STOMP kernel's diagonal tiles,
// the shapelet transform's instances and the one-vs-rest SVM problems.
// Each caller keeps its per-worker state (a scratch arena, a partial
// profile, counters) in a slot indexed by the worker number or in locals of
// its work function, and checks its context after Run returns.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls work once for each of min(max(workers, 1), n) workers, numbered
// w = 0, 1, …, and returns when every call has returned.  One worker runs on
// the calling goroutine; otherwise each call gets a goroutine of its own.
//
// next deals the indices 0…n−1 from one shared atomic counter, each to
// exactly one worker, in no fixed order.  It returns false once they run out
// or ctx is done, so a cancelled Run deals nothing more: a worker finishes
// the item it holds and its work returns.  Run reports nothing itself; the
// caller checks ctx afterwards and discards incomplete results.
func Run(ctx context.Context, workers, n int, work func(w int, next func() (int, bool))) {
	workers = min(max(workers, 1), n)
	var dealt atomic.Int64
	next := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		i := dealt.Add(1) - 1
		return int(i), i < int64(n)
	}
	if workers == 1 {
		work(0, next)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func(w int) {
			defer wg.Done()
			work(w, next)
		}(w)
	}
	wg.Wait()
}
