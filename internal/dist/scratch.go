package dist

// Scratch is one worker's grow-once arena for repeated Batch evaluations:
// the sliding-dots buffer both kernels write and profileMin turns into the
// profile in place, the fft complex buffer, and a reusable Prepared for
// request-scoped series that are seen once and never again — the ipsd serve
// loop, CV folds, ensemble members.  Buffers grow to the high-water mark of
// the shapes they have seen and are then reused verbatim, so a warmed
// scratch makes the whole re-evaluation path allocation-free (asserted by
// TestBatchEvalAllocs and the serve steady-state alloc test).
//
// A Scratch is owned by exactly one goroutine at a time; give each worker
// its own.  The Prepared returned by Prepare aliases the scratch and is
// invalidated by the next Prepare call.
type Scratch struct {
	dots []float64
	cbuf []complex128

	prep Prepared
}

// Prepare builds the prepared form of t into the scratch's reusable
// Prepared, replacing whatever the previous call prepared.  Unlike
// dist.Prepare, nothing is retained beyond the next call: this is the path
// for series that flow through once (a serve request's instances), where a
// resident Prepared per series would only pile up.
//
// Scratch-prepared series always evaluate on the rolling kernel (direct
// sliding dots): a padded series transform would be built and thrown away
// within one call, which costs more than the fft kernel saves, and building
// it would allocate.  Kernel choice never changes float64 results, so this
// is a pure scheduling decision.
//
//ips:hotpath
func (s *Scratch) Prepare(t []float64) *Prepared {
	p := &s.prep
	n := len(t)
	if cap(p.prefixSq) < n+1 {
		p.prefixSq = make([]float64, n+1)
	}
	p.prefixSq = p.prefixSq[:n+1]
	p.t = t
	p.prefixSq[0] = 0
	for i, v := range t {
		p.prefixSq[i+1] = p.prefixSq[i] + v*v
	}
	p.finite = finiteTotal(p.prefixSq[n])
	p.noFFT = true
	p.fts = nil // stale transforms of the previous series must never resolve
	return p
}
