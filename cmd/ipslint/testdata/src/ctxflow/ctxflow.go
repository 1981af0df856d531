// Package ctxflow is ipslint test corpus: blocking work (//ips:blocking)
// reachable from a ctx-holding caller without that ctx flowing in.
package ctxflow

import "context"

// heavySolve stands in for the long-running kernels (mp.SelfJoinCtx,
// dist.Batch, SVM training).
//
//ips:blocking
func heavySolve(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return total
		default:
		}
		total += i
	}
	return total
}

// heavySolveNoCtx is the convenience wrapper that smuggles in Background.
func heavySolveNoCtx(n int) int {
	return heavySolve(context.Background(), n)
}

func dropCtxDirect(ctx context.Context, n int) int {
	return heavySolve(context.Background(), n) // want "blocking call to ctxflow.heavySolve without the caller's ctx"
}

func dropCtxViaWrapper(ctx context.Context, n int) int {
	return heavySolveNoCtx(n) // want "reaches blocking ctxflow.heavySolve without the caller's ctx"
}

type trainer struct{ iters int }

//ips:blocking
func (t *trainer) train(ctx context.Context) int {
	return heavySolve(ctx, t.iters)
}

func dropCtxMethod(ctx context.Context, t *trainer) int {
	return t.train(context.TODO()) // want "blocking call to .ctxflow.trainer..train without the caller's ctx"
}

// Passing the live ctx through is the contract.
func passesCtx(ctx context.Context, n int) int {
	return heavySolve(ctx, n)
}

// A caller with no ctx of its own has nothing to flow; its own callers are
// judged instead.
func noCtxCaller(n int) int {
	return heavySolveNoCtx(n)
}

// Non-blocking helpers may be called without ctx.
func cheap(n int) int { return 2 * n }

func callsCheap(ctx context.Context, n int) int {
	return heavySolve(ctx, n) + cheap(n)
}
