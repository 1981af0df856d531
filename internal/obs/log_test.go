package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"ips/internal/errs"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]struct {
		level   slog.Level
		enabled bool
	}{
		"off": {0, false}, "": {0, false}, "none": {0, false},
		"debug": {slog.LevelDebug, true}, "info": {slog.LevelInfo, true},
		"warn": {slog.LevelWarn, true}, "warning": {slog.LevelWarn, true},
		"error": {slog.LevelError, true}, "DEBUG": {slog.LevelDebug, true},
	}
	for in, want := range cases {
		lvl, enabled, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q) error: %v", in, err)
		}
		if enabled != want.enabled || (enabled && lvl != want.level) {
			t.Fatalf("ParseLevel(%q) = %v/%v, want %v/%v", in, lvl, enabled, want.level, want.enabled)
		}
	}
	if _, _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

func TestLoggerFromContext(t *testing.T) {
	// A bare context yields the silent logger, never nil.
	lg := Log(context.Background())
	if lg == nil {
		t.Fatal("Log returned nil")
	}
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("default logger is enabled")
	}
	lg.Info("goes nowhere") // must not panic

	var buf bytes.Buffer
	live, err := NewLogger(&buf, "info", false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithLogger(context.Background(), live)
	Log(ctx).Info("hello", "k", 1)
	if !strings.Contains(buf.String(), "hello") || !strings.Contains(buf.String(), "k=1") {
		t.Fatalf("log output = %q", buf.String())
	}
	buf.Reset()
	Log(ctx).Debug("filtered")
	if buf.Len() != 0 {
		t.Fatalf("debug leaked through info level: %q", buf.String())
	}

	// Off level yields a nil logger from NewLogger and WithLogger(nil) is a
	// no-op context passthrough.
	off, err := NewLogger(&buf, "off", false)
	if err != nil {
		t.Fatal(err)
	}
	if off != nil {
		t.Fatal("off level returned a live logger")
	}
	if got := WithLogger(ctx, nil); got != ctx {
		t.Fatal("WithLogger(nil) changed the context")
	}
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", true)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("structured", "n", 42)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("JSON handler output not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "structured" || rec["n"] != float64(42) {
		t.Fatalf("record = %v", rec)
	}
}

func TestWithSpanAnnotatesLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", false)
	if err != nil {
		t.Fatal(err)
	}
	o := New("run")
	sp := o.Root().Child("candidate-gen")
	defer sp.End()
	ctx := WithSpan(WithLogger(context.Background(), lg), sp)
	Log(ctx).Debug("inside the stage")
	if !strings.Contains(buf.String(), "span=candidate-gen") {
		t.Fatalf("span attr missing: %q", buf.String())
	}
	// With logging off, WithSpan must not allocate a derived logger.
	plain := WithSpan(context.Background(), sp)
	if Log(plain).Enabled(plain, slog.LevelError) {
		t.Fatal("silent context became enabled through WithSpan")
	}
}

func TestErrAttrs(t *testing.T) {
	err := errs.BadInput(errs.StagePruning, "dabf.build", "GunPoint", "empty pool")
	attrs := ErrAttrs(err)
	var buf bytes.Buffer
	lg, _ := NewLogger(&buf, "error", false)
	lg.Error("failed", attrs...)
	out := buf.String()
	for _, want := range []string{"stage=pruning", "op=dabf.build", "dataset=GunPoint", "class=bad-input"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ErrAttrs output missing %q: %q", want, out)
		}
	}
	if got := ErrClass(context.Canceled); got != "canceled" {
		t.Fatalf("ErrClass(context.Canceled) = %q", got)
	}
}

// TestDisabledLoggingAllocs pins "telemetry off is free": logging through a
// context with no logger must not allocate, even with attribute arguments.
func TestDisabledLoggingAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		Log(ctx).Debug("hot path", "a", 1, "b", 2.5)
		Log(ctx).Info("hot path", "c", "s")
	})
	if allocs != 0 {
		t.Fatalf("disabled logging allocates %v per run, want 0", allocs)
	}
}

// TestHistogramBoundsMismatchWarns covers the Registry.Histogram dedup
// contract: a second registration with different bounds reuses the first
// histogram and warns through the registry's logger instead of silently
// dropping the new bounds.
func TestHistogramBoundsMismatchWarns(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	r.SetLogger(lg)
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{99})
	if h1 != h2 {
		t.Fatal("histogram not deduplicated by name")
	}
	out := buf.String()
	if !strings.Contains(out, "bounds") || !strings.Contains(out, "h") {
		t.Fatalf("no bounds-mismatch warning: %q", out)
	}
	buf.Reset()
	// Same bounds: no warning.
	r.Histogram("h", []float64{1, 2})
	if buf.Len() != 0 {
		t.Fatalf("matching bounds warned: %q", buf.String())
	}
	// SetLogger(nil) restores silence without panicking.
	r.SetLogger(nil)
	r.Histogram("h", []float64{5})
}
