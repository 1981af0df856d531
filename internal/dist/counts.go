package dist

import "ips/internal/obs"

// Counts accumulates the engine's evaluations by path and its refined windows
// for one evaluation scope.  The engine increments plain fields (no atomics
// in the hot loops); callers working across goroutines keep one Counts per
// worker, Merge them, and flush the total to an obs registry once.
type Counts struct {
	// Rolling and Exact count (query, series) evaluations by path; Exact is
	// the ts.Dist fallback for degenerate pairs (non-finite values, empty or
	// over-long queries).
	Rolling, Exact int64
	// Refined counts windows the exact step re-summed (see
	// Prepared.profileMin).
	Refined int64
}

// Merge adds other into c.
func (c *Counts) Merge(other Counts) {
	c.Rolling += other.Rolling
	c.Exact += other.Exact
	c.Refined += other.Refined
}

// AddTo flushes the counts into the registry under the dist.* namespace
// (no-op on a nil registry, so spans-only observers cost nothing).
func (c *Counts) AddTo(m *obs.Registry) {
	if m == nil {
		return
	}
	m.Counter("dist.kernel.rolling").Add(c.Rolling)
	m.Counter("dist.kernel.exact").Add(c.Exact)
	m.Counter("dist.refined_windows").Add(c.Refined)
}

// Annotate records the evaluations by path as span attributes (no-op on nil
// spans).
func (c *Counts) Annotate(sp *obs.Span) {
	sp.SetInt("dist.rolling", c.Rolling)
	sp.SetInt("dist.exact", c.Exact)
}
