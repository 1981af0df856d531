package serve

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/stream"
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
	id string
	sl *slot // its name is the resolved canonical model name
	v  *version
	mu sync.Mutex
	st *stream.Stream
}

// sessionTable is the server's live-session registry.
type sessionTable struct {
	mu       sync.Mutex
	sessions map[string]*session
	lastID   int64
	open     *obs.Gauge // serve.streams.open, set as sessions open and close
}

// create registers a new session, enforcing the MaxStreams admission cap.
func (t *sessionTable) create(max int, sl *slot, v *version, st *stream.Stream) (*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sessions == nil {
		t.sessions = map[string]*session{}
	}
	if len(t.sessions) >= max {
		return nil, errs.Overload(errs.StageServe, "serve.stream", sl.name,
			"%d streams open, cap is %d; close a session or retry later", len(t.sessions), max)
	}
	t.lastID++
	ses := &session{id: "s-" + strconv.FormatInt(t.lastID, 10), sl: sl, v: v, st: st}
	t.sessions[ses.id] = ses
	t.open.Set(float64(len(t.sessions)))
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
	t.open.Set(float64(len(t.sessions)))
	return ses, ok
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
func (s *Server) handleStream(ctx context.Context, w http.ResponseWriter, r *http.Request, _ string, q url.Values) int {
	if id := q.Get("session"); id != "" {
		return s.streamAppend(ctx, w, r, id)
	}
	return s.streamCreate(ctx, w, r, q)
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
		writeError(ctx, w, notFound("serve.stream", "session "+id))
		return
	}
	obs.Log(ctx).Info("stream closed", "op", "serve.stream", "session", id, "n", ses.st.N())
	writeJSON(ctx, w, http.StatusOK, streamCloseResponse{Session: id, Closed: true, N: ses.st.N()})
}

// streamCreate opens a session against ?model= and ingests the (optional)
// first body chunk.
func (s *Server) streamCreate(ctx context.Context, w http.ResponseWriter, r *http.Request, q url.Values) int {
	name := q.Get("model")
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

	window := 0 // stream.New's default, the shortest shapelet
	if wq := q.Get("window"); wq != "" {
		n, err := strconv.Atoi(wq)
		if err != nil || n < 1 {
			return writeError(ctx, w, errs.BadInput(errs.StageServe, "serve.stream", name, "bad window %q", wq))
		}
		window = n
	}

	points, err := decodePoints(ctx, r)
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
	ses, err := s.streams.create(s.cfg.MaxStreams, sl, v, st)
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
		"session", ses.id, "model", ses.sl.name, "version", v.id, "window", st.Window(), "points", len(points))
	writeJSON(ctx, w, http.StatusOK, streamResp(ses, up))
	return http.StatusOK
}

// streamAppend ingests one body chunk into an existing session.
func (s *Server) streamAppend(ctx context.Context, w http.ResponseWriter, r *http.Request, id string) int {
	ses, ok := s.streams.lookup(id)
	if !ok {
		return writeError(ctx, w, notFound("serve.stream", "session "+id))
	}
	if ses.sl.retired.Load() {
		return writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve.stream", ses.sl.name, "model is retired"))
	}
	points, err := decodePoints(ctx, r)
	if err != nil {
		return writeError(ctx, w, errs.Wrap(errs.StageServe, "serve.stream", ses.sl.name, err))
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
		Session: ses.id, Model: ses.sl.name, Version: ses.v.id,
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

// decodePoints decodes one stream chunk: {"points": [...]} JSON or a
// one-row UCR TSV (label ignored).  An empty body is a valid no-op chunk,
// whatever its Content-Type.
func decodePoints(ctx context.Context, r *http.Request) ([]float64, error) {
	// Peek buffers up to 512 bytes, what json.Decoder asks for in its first
	// read, so a short chunk reaches the decoder whole and its buffer does
	// not grow.
	body := bufio.NewReaderSize(r.Body, 512)
	_, err := body.Peek(1)
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, decodeErr(ctx, err)
	}
	var req streamRequest
	rows, err := decodeBody(ctx, body, r.Header.Get("Content-Type"), &req)
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "stream TSV chunk must be one row, got %d", len(rows))
	}
	return rows[0], nil
}
