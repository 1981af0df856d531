package dist

// Scratch is one worker's grow-once arena for repeated Batch evaluations:
// the profile buffer the rolling kernel writes (the Go pass writes the
// sliding dots there first) and profileMin reads, and a reusable Prepared for
// series that are evaluated once and then dropped — a serve request's
// instances, a stream's new suffix, an instance the shapelet transform or a
// utility sum embeds.  Buffers grow to the high-water mark of the shapes
// they have seen and are then reused verbatim, so a warmed scratch makes the
// whole re-evaluation path allocation-free (asserted by TestBatchEvalAllocs
// and the serve steady-state alloc test).
//
// A Scratch is owned by exactly one goroutine at a time; give each worker
// its own.  The Prepared returned by Prepare aliases the scratch and is
// invalidated by the next Prepare call.
type Scratch struct {
	dots []float64

	prep Prepared
}

// Prepare builds the prepared form of t into the scratch's reusable
// Prepared, replacing whatever the previous call prepared.  Unlike
// dist.Prepare, nothing is retained beyond the next call: this is the path
// for series that flow through once (a serve request's instances), where a
// resident Prepared per series would only pile up.
//
//ips:hotpath
func (s *Scratch) Prepare(t []float64) *Prepared {
	s.prep.reset(t)
	return &s.prep
}
