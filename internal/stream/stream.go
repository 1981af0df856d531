// Package stream maintains online per-series state for streaming
// classification: an incremental matrix profile (STOMPI, byte-identical to
// a batch SelfJoinCtx at every step), a shapelet-transform feature vector kept
// current by delta-evaluation (only windows touching newly appended points
// are re-scored), and drift detection over the profile's nearest-neighbour
// distances.
//
// The delta transform is exact, not approximate: the Def. 4 distance of a
// shapelet to a series is the minimum over alignment windows of a value
// that depends only on the window's contents, so the minimum decomposes
// over any window cover — evaluating just the suffix of the series that
// contains every new window and min-folding the result into the running
// feature vector is bitwise identical to re-evaluating the whole series.
// The equivalence suite pins stream output byte-identical to the batch
// classify.TransformWith on the accumulated series.
//
// A Stream is not safe for concurrent use; callers (e.g. the serving
// layer's session table) serialise Appends.
package stream

import (
	"context"
	"math"

	"ips/internal/classify"
	"ips/internal/dist"
	"ips/internal/errs"
	"ips/internal/mp"
)

// DriftConfig tunes the drift detector: the stream tracks the running mean
// and standard deviation (Welford) of each new window's nearest-neighbour
// distance at arrival, and flags an append whose distance exceeds
// mean + Factor·std once MinSamples windows have been observed.  A flagged
// window is a discord relative to the series' own history — the signal that
// the generating process has shifted and the model should be re-fit.
type DriftConfig struct {
	// Factor is the flag threshold in standard deviations (default 3).
	Factor float64
	// MinSamples is the number of windows observed before flagging starts
	// (default 30): early profile entries are poor neighbours by
	// construction and would otherwise flag spuriously.
	MinSamples int
}

// Config configures a Stream.  Its features come from the distance engine,
// whose byte-identity to ts.Dist is what keeps the delta transform exact
// (see the package doc).
type Config struct {
	// Window is the matrix-profile window length (>= 1); 0 means the
	// shortest shapelet's length.
	Window int
	// Shapelets is the model's shapelet set; the feature vector has one
	// entry per shapelet.  May be empty for profile-only streaming.
	Shapelets []classify.Shapelet
	// Scaler and SVM complete the classification head; when either is nil
	// the stream still maintains features but returns no predictions.
	Scaler *classify.Scaler
	SVM    *classify.SVM
	// MaxPoints caps the total ingested points (0 = unbounded).  An append
	// that would exceed it is refused whole as typed errs.ErrOverload
	// before any state changes.
	MaxPoints int
	// Drift tunes re-fit flagging; the zero value gets defaults.
	Drift DriftConfig
}

// Update is the result of one Append: the state of the stream after the
// new points were ingested.
type Update struct {
	// N is the total points ingested so far; Windows the number of
	// matrix-profile positions (N − Window + 1, floored at 0).
	N, Windows int
	// Pred is the predicted class for the accumulated series, valid when
	// HasPred is true (the stream has points, shapelets, and a head).
	Pred    int
	HasPred bool
	// Drift reports whether any window ingested by this append exceeded
	// the drift threshold; DriftScore is the largest z-score observed this
	// append (0 when no window was scored).
	Drift      bool
	DriftScore float64
	// Motif/Discord are the window indices of the smallest and largest
	// finite profile distances (−1 while the profile has no neighbours),
	// with their distances.
	Motif, Discord         int
	MotifDist, DiscordDist float64
}

// Stream is the online state for one series.
type Stream struct {
	cfg    Config
	inc    *mp.Incremental
	batch  *dist.Batch
	maxLen int // longest shapelet (>= 1 when shapelets exist)

	feat    []float64 // min distance per shapelet over the first featLen points
	featLen int       // series length feat reflects (delta-eval resume point)
	row     []float64 // suffix-evaluation output row
	scaled  []float64
	dec     []float64
	scratch dist.Scratch
	counts  dist.Counts

	// Welford state over new-window nearest-neighbour distances.
	windowsSeen int // finite-distance windows observed, including skipped warmup
	driftN      int
	driftMean   float64
	driftM2     float64
}

// New builds a Stream.  The configuration is validated up front as typed
// errs.ErrBadInput, so every later Append failure is about the appended
// data, not the setup.
func New(cfg Config) (*Stream, error) {
	if cfg.Window == 0 {
		for _, sh := range cfg.Shapelets {
			if cfg.Window == 0 || len(sh.Values) < cfg.Window {
				cfg.Window = len(sh.Values)
			}
		}
	}
	if cfg.Window < 1 {
		return nil, errs.BadInput(errs.StageStream, "stream.new", "", "window must be >= 1 (got %d)", cfg.Window)
	}
	if cfg.SVM != nil && cfg.Scaler != nil && len(cfg.Scaler.Mean) != len(cfg.Shapelets) {
		return nil, errs.BadInput(errs.StageStream, "stream.new", "", "scaler width %d != %d shapelets", len(cfg.Scaler.Mean), len(cfg.Shapelets))
	}
	if cfg.Drift.Factor <= 0 {
		cfg.Drift.Factor = 3
	}
	if cfg.Drift.MinSamples <= 0 {
		cfg.Drift.MinSamples = 30
	}
	inc, err := mp.NewIncremental(nil, cfg.Window)
	if err != nil {
		return nil, err
	}
	s := &Stream{cfg: cfg, inc: inc}
	if n := len(cfg.Shapelets); n > 0 {
		queries := make([][]float64, n)
		s.maxLen = 1
		for i, sh := range cfg.Shapelets {
			queries[i] = sh.Values
			if len(sh.Values) > s.maxLen {
				s.maxLen = len(sh.Values)
			}
		}
		s.batch = dist.NewBatch(queries)
		s.feat = make([]float64, n)
		s.row = make([]float64, n)
		s.scaled = make([]float64, n)
	}
	if cfg.SVM != nil {
		s.dec = make([]float64, len(cfg.SVM.Classes))
	}
	return s, nil
}

// Reserve grows the internal buffers for a series of total points, making
// subsequent Appends of bounded batch size allocation-free.
func (s *Stream) Reserve(total int) { s.inc.Reserve(total) }

// N returns the total points ingested.
func (s *Stream) N() int { return s.inc.Len() }

// Window returns the matrix-profile window length.
func (s *Stream) Window() int { return s.cfg.Window }

// Windows returns the number of matrix-profile positions.
func (s *Stream) Windows() int { return s.inc.Windows() }

// Profile returns a copy of the current matrix profile.
func (s *Stream) Profile() *mp.Profile { return s.inc.Profile() }

// Features returns the current shapelet-transform feature vector (one
// entry per shapelet, valid once at least one point was ingested).  The
// slice is the live internal buffer; callers must not mutate or retain it
// across Appends.
func (s *Stream) Features() []float64 { return s.feat[:len(s.feat):len(s.feat)] }

// Append ingests pts and brings the profile, features, prediction, and
// drift state current.  Non-finite points are rejected whole — before any
// state changes — as typed errs.ErrBadInput; an append that would exceed
// MaxPoints is refused the same way as errs.ErrOverload.  A cancelled ctx
// aborts the (suffix) feature evaluation with errs.ErrCanceled, leaving
// the stream consistent: the profile includes the new points, the feature
// vector still reflects its last fully evaluated prefix, and the next
// Append resumes the delta evaluation from that prefix.
//
//ips:blocking
func (s *Stream) Append(ctx context.Context, pts []float64) (Update, error) {
	if err := errs.Ctx(ctx, errs.StageStream, "stream.append"); err != nil {
		return Update{}, err
	}
	for k, v := range pts {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Update{}, errs.BadInput(errs.StageStream, "stream.append", "", "non-finite value %v at offset %d", v, k)
		}
	}
	if s.cfg.MaxPoints > 0 && s.inc.Len()+len(pts) > s.cfg.MaxPoints {
		return Update{}, errs.Overload(errs.StageStream, "stream.append", "",
			"stream at %d points, appending %d exceeds cap %d", s.inc.Len(), len(pts), s.cfg.MaxPoints)
	}

	up := Update{}
	for _, v := range pts {
		before := s.inc.Windows()
		if err := s.inc.Append(v); err != nil {
			return Update{}, err // unreachable: pts pre-validated
		}
		if s.inc.Windows() > before {
			s.observeWindow(s.inc.DistAt(before), &up)
		}
	}

	if s.batch != nil && s.inc.Len() > s.featLen {
		if err := s.deltaEval(ctx); err != nil {
			return Update{}, err
		}
	}
	// Deliberately no per-append logging here: this is the steady-state
	// serving path and even a discarded slog call boxes its arguments.
	// The serving layer logs at session granularity instead.
	s.fillUpdate(&up)
	return up, nil
}

// deltaEval brings feat current with the series: it evaluates the suffix
// containing every window not yet folded into feat and min-folds (or, while
// the series is shorter than the longest shapelet, replaces — the short-
// series fallback distance is not a window minimum and does not decompose).
func (s *Stream) deltaEval(ctx context.Context) error {
	series := s.inc.Series()
	suffixStart := s.featLen - s.maxLen + 1
	if suffixStart < 0 {
		suffixStart = 0
	}
	p := s.scratch.Prepare(series[suffixStart:])
	if err := s.batch.EvalScratchCtx(ctx, p, s.row, &s.counts, &s.scratch); err != nil {
		return err
	}
	if suffixStart == 0 {
		copy(s.feat, s.row)
	} else {
		for i, v := range s.row {
			if v < s.feat[i] {
				s.feat[i] = v
			}
		}
	}
	s.featLen = len(series)
	return nil
}

// observeWindow runs the drift detector on one new window's
// nearest-neighbour distance at arrival.  The threshold check uses the
// statistics from *before* this distance is folded in, so a sustained
// burst of discords keeps flagging instead of absorbing itself into the
// baseline.  +Inf distances (windows with no neighbour yet) are skipped,
// and so are the first MinSamples finite windows entirely: the earliest
// windows have only a handful of candidate neighbours, so their distances
// are structurally inflated and would poison the baseline's variance for
// the life of the stream.
func (s *Stream) observeWindow(d float64, up *Update) {
	if math.IsInf(d, 1) {
		return
	}
	s.windowsSeen++
	if s.windowsSeen <= s.cfg.Drift.MinSamples {
		return
	}
	if s.driftN >= s.cfg.Drift.MinSamples {
		std := math.Sqrt(s.driftM2 / float64(s.driftN))
		if std > 0 {
			z := (d - s.driftMean) / std
			if z > up.DriftScore {
				up.DriftScore = z
			}
			if z > s.cfg.Drift.Factor {
				up.Drift = true
			}
		}
	}
	s.driftN++
	delta := d - s.driftMean
	s.driftMean += delta / float64(s.driftN)
	s.driftM2 += delta * (d - s.driftMean)
}

// fillUpdate completes up with the post-append state: counts, prediction,
// and motif/discord locations.
func (s *Stream) fillUpdate(up *Update) {
	up.N = s.inc.Len()
	up.Windows = s.inc.Windows()
	if s.batch != nil && s.featLen > 0 && s.cfg.Scaler != nil && s.cfg.SVM != nil {
		s.cfg.Scaler.ApplyRowInto(s.scaled, s.feat)
		up.Pred = s.cfg.SVM.PredictRow(s.scaled, s.dec)
		up.HasPred = true
	}
	up.Motif = s.inc.MinIndex()
	up.Discord = s.inc.MaxIndex()
	if up.Motif >= 0 {
		up.MotifDist = s.inc.DistAt(up.Motif)
	}
	if up.Discord >= 0 {
		up.DiscordDist = s.inc.DistAt(up.Discord)
	}
}
