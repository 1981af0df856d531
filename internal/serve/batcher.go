package serve

import (
	"context"
	"sync"

	"ips/internal/dist"
	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/ts"
)

// gate is one model's admission control.  Every request runs through it on
// its own handler goroutine: it is admitted into a bounded count of waiting
// requests (full is a typed overload, never an unbounded wait), waits for one
// of the model's WorkersPerModel tokens or its deadline, and evaluates while
// holding that token.  A token is both the right to evaluate and that
// evaluation's arena, so at most WorkersPerModel requests evaluate the model
// at once, and each of them reuses a warm arena.
type gate struct {
	srv    *Server
	slot   *slot
	tokens chan *execScratch

	mu      sync.Mutex
	waiting int // admitted requests that do not hold a token yet

	// Metric handles are resolved once at construction (nil-safe no-ops when
	// observability is off) so the eval path never touches the registry map.
	cntAccepted, cntRejected *obs.Counter
	cntExpired, cntGroups    *obs.Counter
	cntJobs, cntInstances    *obs.Counter
	histBatch                *obs.Histogram
}

func newGate(srv *Server, sl *slot) *gate {
	met := srv.metrics()
	g := &gate{
		srv:    srv,
		slot:   sl,
		tokens: make(chan *execScratch, srv.cfg.WorkersPerModel),

		cntAccepted:  met.Counter("serve.admit.accepted"),
		cntRejected:  met.Counter("serve.admit.rejected"),
		cntExpired:   met.Counter("serve.queue.expired"),
		cntGroups:    met.Counter("serve.batch.groups"),
		cntJobs:      met.Counter("serve.batch.jobs"),
		cntInstances: met.Counter("serve.batch.instances"),
		histBatch:    met.Histogram("serve.batch.ms", latencyBuckets),
	}
	for i := 0; i < srv.cfg.WorkersPerModel; i++ {
		g.tokens <- &execScratch{}
	}
	return g
}

// execScratch is one token's grow-once working set: the distance engine's
// scratch arena, a kernel-mix accumulator flushed per request, and the
// embedding/scaled/decision row buffers.  After warm-up a classify request
// evaluates entirely inside it without allocating (asserted by
// TestServeExecAllocs).
type execScratch struct {
	scratch dist.Scratch
	counts  dist.Counts
	row     []float64
	scaled  []float64
	dec     []float64
}

// eval runs one request through the gate on the caller's goroutine: admit
// it, wait for a token, resolve the slot's version once, and evaluate every
// instance under ctx while holding the token.  A classify request passes
// preds and a transform request passes rows, each of len(instances); eval
// fills the one that is non-nil and returns the version that produced it.
//
// The single version load is the hot-swap consistency point: the request
// sees one model, scaler, SVM and prepared batch, even if a swap lands
// mid-evaluation.
func (g *gate) eval(ctx context.Context, instances []ts.Series, preds []int, rows [][]float64) (int64, error) {
	if err := g.admit(); err != nil {
		return 0, err
	}
	es, err := g.acquire(ctx)
	if err != nil {
		return 0, err
	}
	defer func() { g.tokens <- es }()

	v := g.slot.cur.Load()
	if v == nil || g.slot.retired.Load() {
		return 0, errs.Unavailable(errs.StageServe, "serve.exec", g.slot.name, "model retired")
	}
	g.cntGroups.Inc()
	g.cntJobs.Inc()
	g.cntInstances.Add(int64(len(instances)))
	sw := obs.NewStopwatch()
	err = es.evaluate(ctx, v, instances, preds, rows)
	g.histBatch.Observe(float64(sw.Elapsed().Microseconds()) / 1000)
	es.counts.AddTo(g.srv.metrics())
	es.counts = dist.Counts{}
	if err != nil {
		return 0, err
	}
	return v.id, nil
}

// admit takes a waiting place without blocking.  A full count is the
// backpressure signal: the caller gets a typed ErrOverload (HTTP 429)
// immediately instead of a wait that would only grow its latency past its
// deadline.
func (g *gate) admit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiting >= g.srv.cfg.QueueDepth {
		g.cntRejected.Inc()
		return errs.Overload(errs.StageServe, "serve.admit", g.slot.name,
			"queue full (%d waiting)", g.waiting)
	}
	g.waiting++
	g.cntAccepted.Inc()
	return nil
}

// acquire waits for a token or for ctx to end, whichever comes first, and
// gives up the waiting place either way.  A request whose ctx ended before
// it could evaluate is never executed: it is counted in serve.queue.expired
// and answered with a typed cancellation (504 on a deadline).
func (g *gate) acquire(ctx context.Context) (*execScratch, error) {
	var es *execScratch
	select {
	case es = <-g.tokens:
	case <-ctx.Done():
	}
	g.mu.Lock()
	g.waiting--
	g.mu.Unlock()
	if err := ctx.Err(); err != nil {
		if es != nil {
			g.tokens <- es
		}
		g.cntExpired.Inc()
		return nil, errs.Canceled(errs.StageServe, "serve.queue", g.slot.name, err)
	}
	return es, nil
}

// evaluate embeds (and, for classify, scores) every instance against v,
// entirely inside the arena: request series are scratch-prepared (they are
// seen once, so nothing about them is kept), the embedding evaluates into
// the reusable row buffers, and predictions land in the caller's preds.
// After warm-up the classify path allocates nothing; transform rows are the
// response payload, so that path allocates exactly the rows it returns.
func (es *execScratch) evaluate(ctx context.Context, v *version, instances []ts.Series, preds []int, rows [][]float64) error {
	m := v.model
	k := len(m.Shapelets)
	if preds == nil {
		for i, s := range instances {
			row := make([]float64, k)
			if err := v.batch.EvalScratchCtx(ctx, es.scratch.Prepare(s), row, &es.counts, &es.scratch); err != nil {
				return err
			}
			rows[i] = row
		}
		return nil
	}
	if cap(es.row) < k {
		es.row = make([]float64, k)
		es.scaled = make([]float64, k)
	}
	es.row = es.row[:k]
	es.scaled = es.scaled[:k]
	nc := len(m.SVM.Classes)
	if cap(es.dec) < nc {
		es.dec = make([]float64, nc)
	}
	es.dec = es.dec[:nc]
	for i, s := range instances {
		if err := v.batch.EvalScratchCtx(ctx, es.scratch.Prepare(s), es.row, &es.counts, &es.scratch); err != nil {
			return err
		}
		m.Scaler.ApplyRowInto(es.scaled, es.row)
		preds[i] = m.SVM.PredictRow(es.scaled, es.dec)
	}
	return nil
}
