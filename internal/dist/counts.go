package dist

import "ips/internal/obs"

// Counts accumulates the engine's kernel decisions and cache traffic for one
// evaluation scope.  The engine increments plain fields (no atomics in the
// hot loops); callers working across goroutines keep one Counts per worker,
// Merge them, and flush the total to an obs registry once.
type Counts struct {
	// Rolling, FFT, and Exact count (query, series) evaluations by kernel;
	// Exact is the ts.Dist fallback for degenerate pairs.
	Rolling, FFT, Exact int64
	// Refined counts windows either kernel re-summed exactly (see
	// Prepared.profileMin).
	Refined int64
	// FFTCacheHits/Misses count padded-series-transform cache lookups.
	FFTCacheHits, FFTCacheMisses int64
}

// Merge adds other into c.
func (c *Counts) Merge(other Counts) {
	c.Rolling += other.Rolling
	c.FFT += other.FFT
	c.Exact += other.Exact
	c.Refined += other.Refined
	c.FFTCacheHits += other.FFTCacheHits
	c.FFTCacheMisses += other.FFTCacheMisses
}

// AddTo flushes the counts into the registry under the dist.* namespace
// (no-op on a nil registry, so spans-only observers cost nothing).
func (c *Counts) AddTo(m *obs.Registry) {
	if m == nil {
		return
	}
	m.Counter("dist.kernel.rolling").Add(c.Rolling)
	m.Counter("dist.kernel.fft").Add(c.FFT)
	m.Counter("dist.kernel.exact").Add(c.Exact)
	m.Counter("dist.refined_windows").Add(c.Refined)
	m.Counter("dist.fft.cache.hits").Add(c.FFTCacheHits)
	m.Counter("dist.fft.cache.misses").Add(c.FFTCacheMisses)
}

// Annotate records the kernel mix as span attributes (no-op on nil spans).
func (c *Counts) Annotate(sp *obs.Span) {
	sp.SetInt("dist.rolling", c.Rolling)
	sp.SetInt("dist.fft", c.FFT)
	sp.SetInt("dist.exact", c.Exact)
}
