package obs

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"strings"

	"ips/internal/errs"
)

// Structured logging rides on log/slog and travels through context.Context,
// matching the ctx-first convention of the rest of the pipeline: a CLI (or a
// test) installs a logger with WithLogger, every stage retrieves it with
// Log(ctx), and the library itself never configures a sink.  When no logger
// was installed, Log returns a shared no-op logger whose handler reports
// every level as disabled, so a log point in a hot loop costs a context
// lookup and one interface call — no attribute is evaluated, nothing
// allocates.
//
// Stage attribution is automatic: the pipeline passes each stage's span to
// WithSpan as it descends, and WithSpan re-derives the context logger with a
// "span" attribute, so a deep log record (say, from the STOMP kernel) carries
// the stage that reached it without the kernel knowing about stages.  Error
// records use ErrAttrs to splice the errs.Error taxonomy — stage, op,
// dataset, sentinel class — into the same attribute space.

type loggerKey struct{}

// nopHandler is a slog.Handler that is disabled at every level.  Unlike a
// handler writing to io.Discard it short-circuits before attribute
// evaluation, which is what makes Log(ctx).Debug(...) effectively free when
// logging is off.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// ParseLevel maps a -log-level flag value onto a slog.Level.  "off" (and "")
// report enabled=false: the caller should install no logger at all.
func ParseLevel(s string) (level slog.Level, enabled bool, err error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none":
		return 0, false, nil
	case "debug":
		return slog.LevelDebug, true, nil
	case "info":
		return slog.LevelInfo, true, nil
	case "warn", "warning":
		return slog.LevelWarn, true, nil
	case "error":
		return slog.LevelError, true, nil
	}
	return 0, false, errors.New("log level must be off, debug, info, warn, or error")
}

// NewLogger builds the CLI-facing logger for a -log-level / -log-json flag
// pair: a text or JSON slog handler on w at the given level, or nil when the
// level is "off" (install nothing, keep the library silent).
func NewLogger(w io.Writer, level string, json bool) (*slog.Logger, error) {
	lv, enabled, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	if !enabled {
		return nil, nil
	}
	opts := &slog.HandlerOptions{Level: lv}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return slog.New(slog.NewTextHandler(w, opts)), nil
}

// WithLogger installs l as the context logger.  A nil l clears it, so
// callers can thread flag parsing straight through.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerKey{}, l)
}

// Log returns the context logger, or the shared no-op logger when none was
// installed (including ctx == nil).  Never nil, so call sites chain
// unconditionally: obs.Log(ctx).Debug("...", ...).
func Log(ctx context.Context) *slog.Logger {
	if ctx == nil {
		return nopLogger
	}
	if l, ok := ctx.Value(loggerKey{}).(*slog.Logger); ok {
		return l
	}
	return nopLogger
}

// WithSpan re-derives the context logger, when logging is live, with a
// "span" attribute naming sp.  The attribute attachment happens once per
// stage here — not per log record — so descending into a span costs
// nothing when logging is off: WithSpan then returns ctx unchanged.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	if l := Log(ctx); l != nopLogger && l.Enabled(ctx, slog.LevelError) {
		ctx = WithLogger(ctx, l.With(slog.String("span", sp.Name())))
	}
	return ctx
}

// ErrAttrs flattens an error into slog attributes: the message, and — when
// the chain carries an *errs.Error — its stage, op, and dataset, plus the
// sentinel classification ("canceled", "bad-input", ...).  Use it to log
// failures with the same attribution the error taxonomy promises:
//
//	obs.Log(ctx).Warn("discovery failed", obs.ErrAttrs(err)...)
func ErrAttrs(err error) []any {
	if err == nil {
		return nil
	}
	attrs := []any{slog.String("err", err.Error())}
	var e *errs.Error
	if errors.As(err, &e) {
		attrs = append(attrs, slog.String("stage", string(e.Stage)))
		if e.Op != "" {
			attrs = append(attrs, slog.String("op", e.Op))
		}
		if e.Dataset != "" {
			attrs = append(attrs, slog.String("dataset", e.Dataset))
		}
	}
	if c := ErrClass(err); c != "" {
		attrs = append(attrs, slog.String("class", c))
	}
	return attrs
}

// ErrClass names the errs sentinel an error chains to, or "" for an
// unclassified error.
func ErrClass(err error) string {
	switch {
	case err == nil:
		return ""
	// Raw context errors classify as cancellations too: a failure logged
	// before the errs wrapping happens should not read as unclassified.
	case errors.Is(err, errs.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, errs.ErrBadInput):
		return "bad-input"
	case errors.Is(err, errs.ErrDegenerate):
		return "degenerate"
	case errors.Is(err, errs.ErrNoShapelets):
		return "no-shapelets"
	case errors.Is(err, errs.ErrInternal):
		return "internal"
	case errors.Is(err, errs.ErrOverload):
		return "overload"
	case errors.Is(err, errs.ErrUnavailable):
		return "unavailable"
	}
	return ""
}
