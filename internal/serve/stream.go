package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/stream"
	"ips/internal/ucr"
)

// session is one live streaming series: a stream.Stream pinned to the model
// version it was created against.  Hot-swapping or retiring the model never
// tears a session's state out from under it — the pinned version keeps
// serving this session's appends (predictions within one session come from
// one model), while *new* sessions land on the new version and appends to a
// retired model's sessions are refused.
//
// The mutex serialises appends: a stream's profile is an ordered fold over
// its points, so concurrent appends to the same session have no meaningful
// semantics — the second caller waits.
type session struct {
	id    string
	model string // resolved canonical model name
	sl    *slot
	v     *version
	mu    sync.Mutex
	st    *stream.Stream
}

// sessionTable is the server's live-session registry.
type sessionTable struct {
	mu       sync.Mutex
	sessions map[string]*session
	lastID   int64
}

// create registers a new session, enforcing the MaxStreams admission cap.
func (t *sessionTable) create(max int, model string, sl *slot, v *version, st *stream.Stream) (*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sessions == nil {
		t.sessions = map[string]*session{}
	}
	if len(t.sessions) >= max {
		return nil, errs.Overload(errs.StageServe, "serve.stream", model,
			"%d streams open, cap is %d; close a session or retry later", len(t.sessions), max)
	}
	t.lastID++
	ses := &session{id: "s-" + strconv.FormatInt(t.lastID, 10), model: model, sl: sl, v: v, st: st}
	t.sessions[ses.id] = ses
	return ses, nil
}

// lookup finds a live session.
func (t *sessionTable) lookup(id string) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ses, ok := t.sessions[id]
	return ses, ok
}

// remove deletes a session, reporting whether it existed.
func (t *sessionTable) remove(id string) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ses, ok := t.sessions[id]
	delete(t.sessions, id)
	return ses, ok
}

// count returns the number of live sessions.
func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// streamRequest is the JSON body of the streaming route: the points to
// append (may be empty on session creation).
type streamRequest struct {
	Points []float64 `json:"points"`
}

// streamResponse is the streaming route's success body: the session handle
// plus the post-append state of the stream.
type streamResponse struct {
	Session string `json:"session"`
	Model   string `json:"model"`
	Version int64  `json:"version"`
	N       int    `json:"n"`
	Windows int    `json:"windows"`
	// Prediction is present once the stream has enough state to classify
	// (points ingested and the model head attached).
	Prediction  *int    `json:"prediction,omitempty"`
	Drift       bool    `json:"drift"`
	DriftScore  float64 `json:"drift_score"`
	Motif       int     `json:"motif"`
	Discord     int     `json:"discord"`
	MotifDist   float64 `json:"motif_dist,omitempty"`
	DiscordDist float64 `json:"discord_dist,omitempty"`
}

// streamCloseResponse is the DELETE /v1/stream success body.
type streamCloseResponse struct {
	Session string `json:"session"`
	Closed  bool   `json:"closed"`
	N       int    `json:"n"`
}

// handleStream is the chunked-POST streaming route.
//
//	POST   /v1/stream?model=NAME[&window=N]  create a session (body optional)
//	POST   /v1/stream?session=ID             append points to a session
//	DELETE /v1/stream?session=ID             close a session
//
// Each POST body ({"points": [...]} JSON, or a one-row UCR TSV) is appended
// to the session's series; the response carries the incremental prediction
// and drift state after those points.  Sessions are subject to the same
// admission taxonomy as the batch routes: draining server 503, unknown
// model 404, retired model 503, MaxStreams and per-stream point caps 429,
// non-finite points 400, deadline mid-evaluation 504 (the session stays
// consistent and the next append resumes the evaluation).  A create whose
// first chunk fails opens no session.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sw := obs.NewStopwatch()
	status := http.StatusOK
	defer func() {
		met := s.metrics()
		met.Counter("serve.http.stream.requests").Inc()
		met.Counter("serve.http.status." + strconv.Itoa(status)).Inc()
		met.Histogram("serve.http.stream.ms", latencyBuckets).Observe(float64(sw.Elapsed().Microseconds()) / 1000)
		met.Gauge("serve.streams.open").Set(float64(s.streams.count()))
	}()

	ctx, cancel, err := s.requestCtx(r, "stream", "")
	if err != nil {
		status = writeError(r.Context(), w, err)
		return
	}
	defer cancel()

	if id := r.URL.Query().Get("session"); id != "" {
		status = s.streamAppend(ctx, w, r, id)
		return
	}
	status = s.streamCreate(ctx, w, r)
}

// handleStreamDelete closes a session.  Close keeps working while the
// server drains — releasing sessions is part of shutting down.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	id := r.URL.Query().Get("session")
	if id == "" {
		writeError(ctx, w, errs.BadInput(errs.StageServe, "serve.stream", "", "missing required ?session= parameter"))
		return
	}
	ses, ok := s.streams.remove(id)
	if !ok {
		writeError(ctx, w, streamNotFound(id))
		return
	}
	s.metrics().Gauge("serve.streams.open").Set(float64(s.streams.count()))
	obs.Log(ctx).Info("stream closed", "op", "serve.stream", "session", id, "n", ses.st.N())
	writeJSON(ctx, w, http.StatusOK, streamCloseResponse{Session: id, Closed: true, N: ses.st.N()})
}

// streamCreate opens a session against ?model= and ingests the (optional)
// first body chunk.
func (s *Server) streamCreate(ctx context.Context, w http.ResponseWriter, r *http.Request) int {
	if s.Draining() {
		return writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve.stream", "", "server is draining"))
	}
	name := r.URL.Query().Get("model")
	if name == "" {
		return writeError(ctx, w, errs.BadInput(errs.StageServe, "serve.stream", "",
			"missing ?model= (create) or ?session= (append) parameter"))
	}
	sl, err := s.reg.resolve(name)
	if err != nil {
		return writeError(ctx, w, err)
	}
	if sl.retired.Load() {
		return writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve.stream", name, "model is retired"))
	}
	v := sl.cur.Load()
	if v == nil {
		return writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve.stream", name, "model has no active version"))
	}

	window := 0
	for _, sh := range v.model.Shapelets {
		if window == 0 || len(sh.Values) < window {
			window = len(sh.Values) // default: shortest shapelet length
		}
	}
	if wq := r.URL.Query().Get("window"); wq != "" {
		n, err := strconv.Atoi(wq)
		if err != nil || n < 1 {
			return writeError(ctx, w, errs.BadInput(errs.StageServe, "serve.stream", name, "bad window %q", wq))
		}
		window = n
	}

	points, err := decodePoints(ctx, w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeError(ctx, w, errs.Wrap(errs.StageServe, "serve.stream", name, err))
	}

	st, err := stream.New(stream.Config{
		Window:    window,
		Shapelets: v.model.Shapelets,
		Scaler:    v.model.Scaler,
		SVM:       v.model.SVM,
		MaxPoints: s.cfg.MaxStreamPoints,
	})
	if err != nil {
		return writeError(ctx, w, err)
	}
	ses, err := s.streams.create(s.cfg.MaxStreams, sl.name, sl, v, st)
	if err != nil {
		return writeError(ctx, w, err)
	}
	ses.mu.Lock()
	up, err := st.Append(ctx, points)
	ses.mu.Unlock()
	if err != nil {
		// The error body carries no session id, so no client could close
		// this session: drop it before it holds a MaxStreams slot forever.
		s.streams.remove(ses.id)
		return writeError(ctx, w, err)
	}
	obs.Log(ctx).Info("stream opened", "op", "serve.stream",
		"session", ses.id, "model", ses.model, "version", v.id, "window", window, "points", len(points))
	writeJSON(ctx, w, http.StatusOK, streamResp(ses, up))
	return http.StatusOK
}

// streamAppend ingests one body chunk into an existing session.
func (s *Server) streamAppend(ctx context.Context, w http.ResponseWriter, r *http.Request, id string) int {
	if s.Draining() {
		return writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve.stream", "", "server is draining"))
	}
	ses, ok := s.streams.lookup(id)
	if !ok {
		return writeError(ctx, w, streamNotFound(id))
	}
	if ses.sl.retired.Load() {
		return writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve.stream", ses.model, "model is retired"))
	}
	points, err := decodePoints(ctx, w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeError(ctx, w, errs.Wrap(errs.StageServe, "serve.stream", ses.model, err))
	}
	ses.mu.Lock()
	up, err := ses.st.Append(ctx, points)
	ses.mu.Unlock()
	if err != nil {
		return writeError(ctx, w, err)
	}
	s.metrics().Counter("serve.stream.points").Add(int64(len(points)))
	writeJSON(ctx, w, http.StatusOK, streamResp(ses, up))
	return http.StatusOK
}

// streamResp shapes an Update into the wire response.
func streamResp(ses *session, up stream.Update) streamResponse {
	resp := streamResponse{
		Session: ses.id, Model: ses.model, Version: ses.v.id,
		N: up.N, Windows: up.Windows,
		Drift: up.Drift, DriftScore: up.DriftScore,
		Motif: up.Motif, Discord: up.Discord,
		MotifDist: up.MotifDist, DiscordDist: up.DiscordDist,
	}
	if up.HasPred {
		pred := up.Pred
		resp.Prediction = &pred
	}
	return resp
}

// streamNotFound types an unknown-session error so statusFor answers 404,
// matching the unknown-model contract.
func streamNotFound(id string) error {
	return notFound("serve.stream", "session "+id)
}

// requestCtx derives the request's deadline context from ?timeout_ms
// (capped at MaxTimeout; DefaultTimeout when absent).
func (s *Server) requestCtx(r *http.Request, route, name string) (context.Context, context.CancelFunc, error) {
	timeout := s.cfg.DefaultTimeout
	if tm := r.URL.Query().Get("timeout_ms"); tm != "" {
		ms, err := strconv.Atoi(tm)
		if err != nil || ms <= 0 {
			return nil, nil, errs.BadInput(errs.StageServe, "serve."+route, name, "bad timeout_ms %q", tm)
		}
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// decodePoints reads one streaming chunk: {"points": [...]} JSON or a
// one-row UCR TSV (label ignored).  An empty body is a valid no-op chunk on
// session creation; non-finite values are the caller's bad input.
func decodePoints(ctx context.Context, w http.ResponseWriter, r *http.Request, maxBytes int64) ([]float64, error) {
	body := ctxReader{ctx: ctx, r: http.MaxBytesReader(w, r.Body, maxBytes)}
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, decodeErr(ctx, err)
	}
	if len(raw) == 0 {
		return nil, nil
	}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "missing or malformed Content-Type")
	}
	var points []float64
	switch mt {
	case "application/json":
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var req streamRequest
		if err := dec.Decode(&req); err != nil {
			return nil, decodeErr(ctx, err)
		}
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "trailing data after JSON body")
		}
		points = req.Points
	case "text/tab-separated-values":
		d, err := ucr.ParseTSV(bytes.NewReader(raw), "request")
		if err != nil {
			return nil, decodeErr(ctx, err)
		}
		if len(d.Instances) != 1 {
			return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "stream TSV chunk must be one row, got %d", len(d.Instances))
		}
		points = d.Instances[0].Values
	default:
		return nil, errs.BadInput(errs.StageServe, "serve.decode",
			"", "unsupported Content-Type %q (want application/json or text/tab-separated-values)", mt)
	}
	for i, v := range points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "point %d is non-finite", i)
		}
	}
	return points, nil
}
