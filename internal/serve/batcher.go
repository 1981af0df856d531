package serve

import (
	"context"
	"sync"

	"ips/internal/dist"
	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/ts"
)

// jobKind selects which serving path a job takes after the shared transform.
type jobKind int

const (
	kindClassify jobKind = iota
	kindTransform
)

// job is one admitted request waiting in a model's queue.
type job struct {
	ctx       context.Context
	kind      jobKind
	instances []ts.Series
	// preds is the classify job's result storage, preallocated by the handler
	// at admission (capacity len(instances)) so the steady-state exec loop
	// writes predictions without allocating.
	preds []int
	// rows is the transform job's result storage, filled at execution (the
	// feature rows are the response payload, so they must escape the worker).
	rows [][]float64
	// done receives exactly one result; buffered so a worker never blocks on
	// a handler that already gave up (its result is simply dropped).
	done chan jobResult
}

// jobResult is what a worker sends back: predictions for kindClassify, the
// raw shapelet-transform feature rows for kindTransform.
type jobResult struct {
	preds   []int
	rows    [][]float64
	version int64
	err     error
}

// gate is one model's admission queue plus the worker pool that drains it.
// Admission is non-blocking — a full queue is a typed overload, never an
// unbounded wait — and each worker coalesces everything queued at wake-up
// (capped by Config.MaxBatch) into a single transform pass so concurrent
// requests share one batched distance evaluation and one prepared-statistics
// cache pass over the model's shapelets.
type gate struct {
	srv  *Server
	slot *slot
	q    chan *job
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	// hold, when non-nil (tests only), makes each worker wait for a token
	// before collecting a group, so a test can pile N jobs into the queue and
	// then release one token to force them through as a single batch.
	hold chan struct{}
	// Metric handles are resolved once at construction (nil-safe no-ops when
	// observability is off) so the exec loop never touches the registry map.
	cntAccepted, cntRejected *obs.Counter
	cntExpired, cntGroups    *obs.Counter
	cntJobs, cntCoalesced    *obs.Counter
	cntInstances             *obs.Counter
	histBatch                *obs.Histogram
}

func newGate(srv *Server, sl *slot) *gate {
	met := srv.metrics()
	return &gate{
		srv:  srv,
		slot: sl,
		q:    make(chan *job, srv.cfg.QueueDepth),
		stop: make(chan struct{}),
		hold: srv.cfg.gateHold,

		cntAccepted:  met.Counter("serve.admit.accepted"),
		cntRejected:  met.Counter("serve.admit.rejected"),
		cntExpired:   met.Counter("serve.queue.expired"),
		cntGroups:    met.Counter("serve.batch.groups"),
		cntJobs:      met.Counter("serve.batch.jobs"),
		cntCoalesced: met.Counter("serve.batch.coalesced"),
		cntInstances: met.Counter("serve.batch.instances"),
		histBatch:    met.Histogram("serve.batch.ms", latencyBuckets),
	}
}

// execScratch is one gate worker's grow-once working set: the distance
// engine's scratch arena, a kernel-mix accumulator flushed per group, the
// embedding/scaled/decision row buffers, and the reusable group slice.  One
// per worker goroutine; after warm-up the classify exec loop runs entirely
// inside it without allocating (asserted by TestServeExecAllocs).
type execScratch struct {
	scratch dist.Scratch
	counts  dist.Counts
	row     []float64
	scaled  []float64
	dec     []float64
	group   []*job
}

// start launches the worker pool.  The goroutines are spawned by spawnWorker
// (not inline) so each worker's closure captures nothing loop-scoped; the
// pool joins in registry.waitGates via g.wg.
func (g *gate) start(workers int) {
	for i := 0; i < workers; i++ {
		g.spawnWorker()
	}
}

// spawnWorker adds one worker to the pool.
func (g *gate) spawnWorker() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.run()
	}()
}

// stopOnce signals the pool to flush the queue and exit.  Idempotent.
func (g *gate) stopOnce() {
	g.once.Do(func() { close(g.stop) })
}

// admit enqueues j without blocking.  A full queue is the backpressure
// signal: the caller gets a typed ErrOverload (HTTP 429) immediately instead
// of a queue slot that would only grow its latency past its deadline.
func (g *gate) admit(j *job) error {
	select {
	case <-g.stop:
		return errs.Unavailable(errs.StageServe, "serve.admit", g.slot.name, "server is shutting down")
	default:
	}
	select {
	case g.q <- j:
		g.cntAccepted.Inc()
		return nil
	default:
		g.cntRejected.Inc()
		return errs.Overload(errs.StageServe, "serve.admit", g.slot.name,
			"queue full (%d waiting)", cap(g.q))
	}
}

// run is one worker's loop: wait for a job, coalesce whatever else is queued
// behind it, execute the group as one batch, repeat.  The worker's scratch
// arena lives across iterations — that's what makes the steady state
// allocation-free.  On stop it flushes the remaining queue (each group still
// executes, so graceful drain completes admitted work) and exits when the
// queue is empty.
func (g *gate) run() {
	es := &execScratch{group: make([]*job, 0, g.srv.cfg.MaxBatch)}
	for {
		if g.hold != nil {
			select {
			case <-g.hold:
			case <-g.stop:
				g.flush(es)
				return
			}
		}
		select {
		case j := <-g.q:
			g.exec(g.collect(j, es), es)
		case <-g.stop:
			g.flush(es)
			return
		}
	}
}

// flush drains and executes everything still queued at shutdown.
func (g *gate) flush(es *execScratch) {
	for {
		select {
		case j := <-g.q:
			g.exec(g.collect(j, es), es)
		default:
			return
		}
	}
}

// collect returns first plus every job already queued behind it, up to the
// batch cap, reusing the worker's group slice.  It never waits: batching
// here exploits queueing that has already happened under load rather than
// adding latency to an idle server.
func (g *gate) collect(first *job, es *execScratch) []*job {
	group := append(es.group[:0], first)
	for len(group) < g.srv.cfg.MaxBatch {
		select {
		case j := <-g.q:
			group = append(group, j)
		default:
			es.group = group // keep any growth for the next batch
			return group
		}
	}
	es.group = group
	return group
}

// exec runs one coalesced group.  The slot's current version is resolved
// exactly once for the whole group — the hot-swap consistency point: every
// job in the group sees the same model, scaler, SVM, and prepared batch,
// even if a swap lands mid-execution.  Jobs whose deadline expired while
// queued are answered with a typed cancellation and excluded from the batch,
// so a stale request never burns transform work.
func (g *gate) exec(group []*job, es *execScratch) {
	v := g.slot.cur.Load()
	if v == nil || g.slot.retired.Load() {
		err := errs.Unavailable(errs.StageServe, "serve.exec", g.slot.name, "model retired")
		for _, j := range group {
			j.done <- jobResult{err: err}
		}
		return
	}

	live := group[:0]
	nInstances := 0
	for _, j := range group {
		if err := j.ctx.Err(); err != nil {
			g.cntExpired.Inc()
			j.done <- jobResult{err: errs.Canceled(errs.StageServe, "serve.queue", g.slot.name, err)}
			continue
		}
		live = append(live, j)
		nInstances += len(j.instances)
	}
	if len(live) == 0 {
		return
	}
	g.cntGroups.Inc()
	g.cntJobs.Add(int64(len(live)))
	if len(live) > 1 {
		g.cntCoalesced.Add(int64(len(live) - 1))
	}
	g.cntInstances.Add(int64(nInstances))

	// Evaluation runs under the server's lifetime context, not any single
	// request's: the group shares one pass, and one client hanging up must
	// not cancel its batch-mates.  Expired requests were already excluded.
	sw := obs.NewStopwatch()
	err := g.evalGroup(v, live, es)
	g.histBatch.Observe(float64(sw.Elapsed().Microseconds()) / 1000)
	es.counts.AddTo(g.srv.metrics())
	es.counts = dist.Counts{}
	if err != nil {
		for _, j := range live {
			j.done <- jobResult{err: err}
		}
		return
	}
	for _, j := range live {
		j.done <- jobResult{preds: j.preds, rows: j.rows, version: v.id}
	}
}

// evalGroup embeds (and, for classify jobs, scores) every live job against
// the resolved version, entirely inside the worker's scratch: request series
// are scratch-prepared (they are seen once, so nothing about them is kept),
// the embedding evaluates into the reusable row buffers, and classify
// predictions append into the job's admission-preallocated storage.  After
// warm-up the classify path allocates nothing; transform rows are the
// response payload and must escape, so that path allocates exactly the rows
// it returns.
func (g *gate) evalGroup(v *version, live []*job, es *execScratch) error {
	m := v.model
	k := len(m.Shapelets)
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
	for _, j := range live {
		switch j.kind {
		case kindClassify:
			if cap(j.preds) < len(j.instances) {
				// Handlers preallocate; this backstops tests building jobs by hand.
				j.preds = make([]int, 0, len(j.instances))
			}
			j.preds = j.preds[:0]
			for _, s := range j.instances {
				p := es.scratch.Prepare(s)
				if err := v.batch.EvalScratchCtx(g.srv.base, p, es.row, &es.counts, &es.scratch); err != nil {
					return err
				}
				m.Scaler.ApplyRowInto(es.scaled, es.row)
				j.preds = append(j.preds, m.SVM.PredictRow(es.scaled, es.dec))
			}
		case kindTransform:
			j.rows = make([][]float64, len(j.instances))
			for i, s := range j.instances {
				row := make([]float64, k)
				p := es.scratch.Prepare(s)
				if err := v.batch.EvalScratchCtx(g.srv.base, p, row, &es.counts, &es.scratch); err != nil {
					return err
				}
				j.rows[i] = row
			}
		}
	}
	return nil
}
