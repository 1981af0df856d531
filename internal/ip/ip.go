// Package ip implements the instance profile (Def. 8/9 of the IPS paper) and
// the shapelet candidate generation of Algorithm 1: per class, Q_N bagging
// samples of Q_S randomly chosen instances are concatenated, the instance
// profile is computed with boundary-spanning subsequences masked out, and the
// motif (profile minimum) and discord (profile maximum) of every candidate
// length join the candidate pool.
package ip

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"

	"ips/internal/errs"
	"ips/internal/mp"
	"ips/internal/obs"
	"ips/internal/par"
	"ips/internal/ts"
)

// Kind distinguishes motif candidates from discord candidates.
type Kind int

const (
	// Motif marks a candidate drawn from an instance-profile minimum; only
	// motifs can become final shapelets (§III-A).
	Motif Kind = iota
	// Discord marks a candidate drawn from an instance-profile maximum;
	// discords participate in the inter-class utility (Def. 12).
	Discord
)

// String returns "motif" or "discord".
func (k Kind) String() string {
	if k == Motif {
		return "motif"
	}
	return "discord"
}

// Candidate is one shapelet candidate: a subsequence extracted from a class
// sample, tagged with its origin.
type Candidate struct {
	Class  int
	Kind   Kind
	Values ts.Series
	// Sample records which of the Q_N bagging samples produced the
	// candidate, Start its offset within that sample's concatenation.
	Sample int
	Start  int
}

// Pool is the per-class candidate pool Φ of Algorithm 1.
type Pool struct {
	ByClass map[int][]Candidate
}

// Classes returns the classes present in the pool in ascending order, so
// downstream per-class iteration (dabf pruning, selection) is deterministic.
func (p *Pool) Classes() []int {
	out := make([]int, 0, len(p.ByClass))
	for c := range p.ByClass {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Size returns the total number of candidates across all classes.
func (p *Pool) Size() int {
	n := 0
	for _, cs := range p.ByClass {
		n += len(cs)
	}
	return n
}

// Motifs returns the motif candidates of class c.
func (p *Pool) Motifs(c int) []Candidate {
	return p.filter(c, Motif)
}

// Discords returns the discord candidates of class c.
func (p *Pool) Discords(c int) []Candidate {
	return p.filter(c, Discord)
}

func (p *Pool) filter(c int, k Kind) []Candidate {
	var out []Candidate
	for _, cand := range p.ByClass[c] {
		if cand.Kind == k {
			out = append(out, cand)
		}
	}
	return out
}

// Config parameterises GenerateSpan (Algorithm 1).
type Config struct {
	// QN is the number of bagging samples per class (paper: {10,20,50,100}).
	QN int
	// QS is the number of instances per sample (paper: {2,3,4,5,10}).
	QS int
	// LengthRatios are candidate lengths as fractions of the instance
	// length (paper: {0.1, 0.2, 0.3, 0.4, 0.5}).
	LengthRatios []float64
	// MinLength floors the absolute candidate length (default 4).
	MinLength int
	// Seed drives the sampling; runs are deterministic given a seed.
	Seed int64
	// Workers sets the number of goroutines computing instance profiles
	// (<=1 means sequential).  When there are fewer profile jobs than
	// workers, the spare parallelism drops into the diagonal-tiled STOMP
	// kernel instead (see mp.SelfJoinCtx).  The sampling itself stays
	// sequential and the kernel is byte-identical for any worker count, so
	// the candidate pool is identical however the work is split — this is
	// the shared-memory form of the distributed discovery the paper lists
	// as future work.
	Workers int
}

// Defaults fills zero-valued fields with the paper's defaults.
func (c Config) Defaults() Config {
	if c.QN <= 0 {
		c.QN = 10
	}
	if c.QS <= 0 {
		c.QS = 3
	}
	if len(c.LengthRatios) == 0 {
		c.LengthRatios = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.MinLength <= 0 {
		c.MinLength = 4
	}
	return c
}

// InstanceProfile computes IP(D_C, L) of Def. 8 over the given instances:
// the matrix profile of their concatenation with subsequences spanning
// instance boundaries excluded.  It returns the profile and the
// concatenated series it annotates.  opt.Workers parallelises the
// underlying STOMP self-join over diagonal tiles (the profile is
// byte-identical for any worker count).  Cancelling ctx returns an error
// matching errs.ErrCanceled.
//
//ips:blocking
func InstanceProfile(ctx context.Context, ins []ts.Instance, L int, opt mp.Options) (*mp.Profile, ts.Series, error) {
	cat, starts := ts.ConcatenateInstances(ins)
	valid := ts.BoundaryMask(starts, len(cat), L)
	prof, err := mp.SelfJoinCtx(ctx, cat, L, valid, opt)
	if err != nil {
		return nil, nil, err
	}
	return prof, cat, nil
}

// Lengths converts the configured ratios into absolute candidate lengths for
// instances of length n, deduplicated and floored at MinLength.  A length
// that would exceed n — which happens exactly when the series is shorter
// than the smallest candidate length MinLength — is dropped rather than
// clamped, so a too-short series yields nil and GenerateSpan reports the class
// as a typed bad-input error instead of manufacturing a degenerate
// whole-series candidate.
func (c Config) Lengths(n int) []int {
	if n < 1 {
		return nil
	}
	c = c.Defaults()
	seen := map[int]bool{}
	var out []int
	for _, r := range c.LengthRatios {
		l := int(r * float64(n))
		if l < c.MinLength {
			l = c.MinLength
		}
		if l > n || l < 1 {
			continue
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// job is one (class, sample, length) instance-profile computation.
type job struct {
	class  int
	sample int
	length int
	cat    ts.Series
	starts []int
}

// GenerateSpan runs Algorithm 1 and returns the candidate pool Φ.  The
// sampling is sequential and seeded; the per-sample instance-profile
// computations fan out over cfg.Workers workers of the shared pool
// (par.Run), producing an identical pool for any worker count.
//
// Sub-spans for per-class sampling and the profile fan-out, per-length and
// per-class candidate counters, worker-utilisation gauges, and streamed
// per-job progress hang off sp.  A nil span disables all of it at the cost
// of a pointer check; the candidate pool is identical either way.
//
// Cancellation is cooperative at instance-profile-job granularity (and,
// inside each job, at the STOMP kernel's tile granularity): once ctx is
// done the pool deals no more jobs and GenerateSpan returns a nil pool with
// an error matching errs.ErrCanceled.
//
//ips:blocking
func GenerateSpan(ctx context.Context, d *ts.Dataset, cfg Config, sp *obs.Span) (*Pool, error) {
	cfg = cfg.Defaults()
	if d == nil {
		return nil, errs.BadInput(errs.StageCandidateGen, "ip.generate", "", "nil dataset")
	}
	if err := d.Validate(false); err != nil {
		return nil, errs.BadInputErr(errs.StageCandidateGen, "ip.generate", d.Name, err)
	}
	byClass := d.ByClass()
	classes := d.Classes()

	// Phase 1 (sequential): draw every sample so the rng stream — and with
	// it the pool — is independent of scheduling.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var jobs []job
	for _, class := range classes {
		ins := byClass[class]
		if len(ins) == 0 {
			continue
		}
		ssp := sp.Child("sample.class-" + strconv.Itoa(class))
		lengths := cfg.Lengths(len(ins[0].Values))
		if len(lengths) == 0 {
			ssp.End()
			return nil, errs.BadInput(errs.StageCandidateGen, "ip.generate", d.Name,
				"class %d: series length %d admits no candidate length", class, len(ins[0].Values))
		}
		for s := 0; s < cfg.QN; s++ {
			sample := ts.Sample(ins, cfg.QS, rng)
			cat, starts := ts.ConcatenateInstances(sample)
			for _, L := range lengths {
				jobs = append(jobs, job{class: class, sample: s, length: L, cat: cat, starts: starts})
			}
		}
		ssp.SetInt("samples", int64(cfg.QN))
		ssp.SetInt("lengths", int64(len(lengths)))
		ssp.End()
	}

	// Phase 2 (parallel): compute the instance profile of each job and
	// extract its motif and discord into a per-job slot.  The fan-out is
	// two-level: jobs spread across cfg.Workers pool workers, and when there
	// are fewer jobs than workers the spare parallelism moves down into the
	// STOMP kernel itself (diagonal tiles), so a handful of large profiles
	// still saturates the machine.  Either way the pool is identical: the
	// kernel is byte-identical for any worker count, and the sampling above
	// already fixed the rng stream.
	kernelWorkers := 1
	if cfg.Workers > 1 && len(jobs) > 0 && len(jobs) < cfg.Workers {
		kernelWorkers = (cfg.Workers + len(jobs) - 1) / len(jobs)
	}
	obs.Log(ctx).Debug("profile fan-out scheduled",
		"op", "ip.generate", "dataset", d.Name, "jobs", len(jobs),
		"workers", cfg.Workers, "kernel_workers", kernelWorkers)
	psp := sp.Child("profiles")
	psp.SetInt("jobs", int64(len(jobs)))
	psp.SetInt("kernel_workers", int64(kernelWorkers))
	var done atomic.Int64
	results := make([][]Candidate, len(jobs))
	run := func(ji int) {
		j := jobs[ji]
		valid := ts.BoundaryMask(j.starts, len(j.cat), j.length)
		prof, err := mp.SelfJoinCtx(ctx, j.cat, j.length, valid, mp.Options{Workers: kernelWorkers})
		if err != nil {
			return // cancelled mid-join; the post-fan-out ctx check reports it
		}
		if prof.Len() == 0 {
			return
		}
		if idx, _ := prof.MinIndex(); idx >= 0 {
			results[ji] = append(results[ji], Candidate{
				Class:  j.class,
				Kind:   Motif,
				Values: j.cat[idx : idx+j.length].Clone(),
				Sample: j.sample,
				Start:  idx,
			})
		}
		if idx, _ := prof.MaxIndex(); idx >= 0 {
			results[ji] = append(results[ji], Candidate{
				Class:  j.class,
				Kind:   Discord,
				Values: j.cat[idx : idx+j.length].Clone(),
				Sample: j.sample,
				Start:  idx,
			})
		}
	}
	// Worker utilisation: jobs handled per worker.  The split is
	// scheduler-dependent, so it is published only as gauges (which
	// manifests normalise), never as a span attribute.
	perWorker := make([]int64, max(cfg.Workers, 1))
	if cfg.Workers > 1 {
		psp.SetInt("workers", int64(cfg.Workers))
	}
	par.Run(ctx, cfg.Workers, len(jobs), func(w int, next func() (int, bool)) {
		for ji, ok := next(); ok; ji, ok = next() {
			run(ji)
			perWorker[w]++
			psp.Progress(int(done.Add(1)), len(jobs))
		}
	})
	if m := sp.Metrics(); m != nil && cfg.Workers > 1 {
		for w, n := range perWorker {
			m.Gauge(fmt.Sprintf("ip.worker_jobs.w%d", w)).Set(float64(n))
		}
	}
	psp.End()
	if err := errs.Ctx(ctx, errs.StageCandidateGen, "ip.generate"); err != nil {
		return nil, err
	}

	// Phase 3: assemble in job order (class, sample, length).
	pool := &Pool{ByClass: map[int][]Candidate{}}
	byLength := map[int]int64{}
	for ji, cands := range results {
		pool.ByClass[jobs[ji].class] = append(pool.ByClass[jobs[ji].class], cands...)
		byLength[jobs[ji].length] += int64(len(cands))
	}
	if m := sp.Metrics(); m != nil {
		for L, n := range byLength {
			m.Counter(fmt.Sprintf("ip.candidates.len%d", L)).Add(n)
		}
		for class, cands := range pool.ByClass {
			m.Counter(fmt.Sprintf("ip.candidates.class%d", class)).Add(int64(len(cands)))
		}
	}
	sp.SetInt("candidates", int64(pool.Size()))
	for _, class := range classes {
		if len(byClass[class]) > 0 && len(pool.ByClass[class]) == 0 {
			return nil, errs.BadInput(errs.StageCandidateGen, "ip.generate", d.Name,
				"class %d produced no candidates (series too short?)", class)
		}
	}
	if len(pool.ByClass) == 0 {
		return nil, errs.BadInput(errs.StageCandidateGen, "ip.generate", d.Name, "empty candidate pool")
	}
	return pool, nil
}
