package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ips/internal/errs"
	"ips/internal/obs"
	"ips/internal/ts"
	"ips/internal/ucr"
)

// Mount registers the serving routes on mux:
//
//	POST   /v1/classify?model=NAME[&timeout_ms=N]   classify instances
//	POST   /v1/transform?model=NAME[&timeout_ms=N]  shapelet-transform features
//	POST   /v1/stream?model=NAME[&window=N]         open a streaming session
//	POST   /v1/stream?session=ID                    append points to a session
//	DELETE /v1/stream?session=ID                    close a session
//	GET    /admin/models                            registry listing
//	POST   /admin/models                            load / alias / retire
//	GET    /healthz                                 200 serving, 503 draining
//
// The eval routes accept two body encodings, selected by Content-Type:
// application/json ({"instances": [[...], ...]}) and text/tab-separated-values
// (the UCR TSV layout: label first — ignored here — then the values).
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/classify", s.route("classify", s.handleEval))
	mux.HandleFunc("POST /v1/transform", s.route("transform", s.handleEval))
	mux.HandleFunc("POST /v1/stream", s.route("stream", s.handleStream))
	mux.HandleFunc("DELETE /v1/stream", s.handleStreamDelete)
	mux.HandleFunc("GET /admin/models", s.handleModelsGet)
	mux.HandleFunc("POST /admin/models", s.handleModelsPost)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// Handler returns a mux with the serving routes mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux
}

// classifyResponse is the POST /v1/classify success body.
type classifyResponse struct {
	Model       string `json:"model"`
	Version     int64  `json:"version"`
	Predictions []int  `json:"predictions"`
}

// transformResponse is the POST /v1/transform success body.
type transformResponse struct {
	Model    string      `json:"model"`
	Version  int64       `json:"version"`
	Features [][]float64 `json:"features"`
}

// evalRequest is the JSON body of the eval routes.
type evalRequest struct {
	Instances []ts.Series `json:"instances"`
}

// workFunc is one work route's own step, run inside the request lifetime
// route gives it: ctx carries the request's deadline, route names the
// route, q is the parsed query and r.Body is already capped and
// deadline-bounded.  It writes the response and returns its status.
type workFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request, route string, q url.Values) int

// route gives a POST work route the one request lifetime they all share.
// The serve.http.<name>.* metrics time the whole request.  The request
// enters the server, or is refused with a typed 503 once the drain has
// begun, and stays in the in-flight group Close waits on until h returns.
// h runs under the ?timeout_ms deadline, which Close's hard stop cancels
// too, and reads a body capped at MaxBodyBytes whose reads observe that
// deadline; the hard stop also ends a read blocked on a stalled client.
func (s *Server) route(name string, h workFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := obs.NewStopwatch()
		status := http.StatusOK
		defer func() {
			met := s.metrics()
			met.Counter("serve.http." + name + ".requests").Inc()
			met.Counter("serve.http.status." + strconv.Itoa(status)).Inc()
			met.Histogram("serve.http."+name+".ms", latencyBuckets).Observe(float64(sw.Elapsed().Microseconds()) / 1000)
		}()
		if err := s.enter(name); err != nil {
			status = writeError(r.Context(), w, err)
			return
		}
		defer s.inflight.Done()

		q := r.URL.Query()
		timeout := s.cfg.DefaultTimeout
		if tm := q.Get("timeout_ms"); tm != "" {
			ms, err := strconv.Atoi(tm)
			if err != nil || ms <= 0 {
				status = writeError(r.Context(), w, errs.BadInput(errs.StageServe, "serve."+name, "", "bad timeout_ms %q", tm))
				return
			}
			timeout = min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		// The hard stop ends a read ctxReader cannot; it must not use w once h returns.
		stopped := make(chan struct{})
		stop := context.AfterFunc(s.base, func() {
			cancel()
			if err := http.NewResponseController(w).SetReadDeadline(time.Unix(1, 0)); err != nil && !errors.Is(err, http.ErrNotSupported) {
				obs.Log(ctx).Debug("hard stop left the body read", "err", err.Error())
			}
			close(stopped)
		})
		defer func() {
			if !stop() {
				<-stopped
			}
		}()
		r.Body = ctxReader{ctx: ctx, ReadCloser: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
		status = h(ctx, w, r, name, q)
	}
}

// handleEval is the classify/transform work: resolve the model, decode and
// validate the body, then evaluate it on this goroutine through the model's
// gate.  The route picks the result: predictions for "classify", feature
// rows for "transform".
func (s *Server) handleEval(ctx context.Context, w http.ResponseWriter, r *http.Request, route string, q url.Values) int {
	name := q.Get("model")
	if name == "" {
		return writeError(ctx, w, errs.BadInput(errs.StageServe, "serve."+route, "", "missing required ?model= parameter"))
	}
	sl, err := s.reg.resolve(name)
	if err != nil {
		return writeError(ctx, w, err)
	}
	if sl.retired.Load() {
		return writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve."+route, name, "model is retired"))
	}

	instances, err := decodeInstances(ctx, r)
	if err != nil {
		return writeError(ctx, w, errs.Wrap(errs.StageServe, "serve."+route, name, err))
	}

	var preds []int
	var rows [][]float64
	if route == "classify" {
		preds = make([]int, len(instances))
	} else {
		rows = make([][]float64, len(instances))
	}
	ver, err := sl.gate.eval(ctx, instances, preds, rows)
	if err != nil {
		return writeError(ctx, w, err)
	}
	if preds != nil {
		writeJSON(ctx, w, http.StatusOK, classifyResponse{Model: name, Version: ver, Predictions: preds})
	} else {
		writeJSON(ctx, w, http.StatusOK, transformResponse{Model: name, Version: ver, Features: rows})
	}
	return http.StatusOK
}

// decodeInstances decodes an eval body: at least one instance, none empty.
func decodeInstances(ctx context.Context, r *http.Request) ([]ts.Series, error) {
	var req evalRequest
	instances, err := decodeBody(ctx, r.Body, r.Header.Get("Content-Type"), &req)
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "no instances in request body")
	}
	for i, inst := range instances {
		if len(inst) == 0 {
			return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "instance %d is empty", i)
		}
	}
	return instances, nil
}

// jsonBody is a work route's JSON document: its one field, read as rows.
type jsonBody interface{ rows() []ts.Series }

func (r *evalRequest) rows() []ts.Series   { return r.Instances }
func (r *streamRequest) rows() []ts.Series { return []ts.Series{r.Points} }

// decodeBody decodes a work route's body by its Content-Type: a JSON
// document into req, with unknown fields and trailing data malformed, or
// UCR TSV rows with their labels ignored.  Every value must be finite.
func decodeBody(ctx context.Context, body io.Reader, contentType string, req jsonBody) ([]ts.Series, error) {
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "missing or malformed Content-Type")
	}
	var rows []ts.Series
	switch mt {
	case "application/json":
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return nil, decodeErr(ctx, err)
		}
		// Trailing garbage after the JSON document is a malformed body too,
		// but a deadline that fires while the tail is read is still a
		// cancellation.
		if err := dec.Decode(&struct{}{}); err != io.EOF {
			if ctx.Err() != nil {
				return nil, decodeErr(ctx, err)
			}
			return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "trailing data after JSON body")
		}
		rows = req.rows()
	case "text/tab-separated-values":
		d, err := ucr.ParseTSV(body, "request")
		if err != nil {
			return nil, decodeErr(ctx, err)
		}
		rows = make([]ts.Series, len(d.Instances))
		for i, in := range d.Instances {
			rows[i] = in.Values
		}
	default:
		return nil, errs.BadInput(errs.StageServe, "serve.decode",
			"", "unsupported Content-Type %q (want application/json or text/tab-separated-values)", mt)
	}
	for i, row := range rows {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "instance %d value %d is non-finite", i, j)
			}
		}
	}
	return rows, nil
}

// decodeErr types a body-decoding failure: cancellations and the body-size
// cap keep their own classification (504/499/413), everything else is the
// client's malformed body (400).
func decodeErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return errs.Canceled(errs.StageServe, "serve.decode", "", ctxErr)
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		// Stays typed (bad input) while keeping the *MaxBytesError in the
		// chain so statusFor answers 413 rather than a generic 400.
		return errs.BadInputErr(errs.StageServe, "serve.decode", "", err)
	}
	return errs.BadInputErr(errs.StageServe, "serve.decode", "", fmt.Errorf("malformed body: %w", err))
}

// ctxReader checks the request context between reads, bounding how long a
// slow client can trickle a body: the gap to the next read observes the
// deadline, though only Close's hard stop can end a Read already blocked.
type ctxReader struct {
	ctx context.Context
	io.ReadCloser
}

func (cr ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.ReadCloser.Read(p)
}

// adminRequest is the POST /admin/models body.
type adminRequest struct {
	Action string `json:"action"` // "load", "alias", or "retire"
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`   // load: model file to read
	Target string `json:"target,omitempty"` // alias: canonical name to point at
}

// handleModelsGet lists the registry.
func (s *Server) handleModelsGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(r.Context(), w, http.StatusOK, struct {
		Models []ModelInfo `json:"models"`
	}{Models: s.List()})
}

// handleModelsPost executes one admin action.  Admin keeps working while the
// server drains — retiring models is part of shutting down.
func (s *Server) handleModelsPost(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req adminRequest
	if err := dec.Decode(&req); err != nil {
		writeError(ctx, w, errs.BadInputErr(errs.StageServe, "serve.admin", "", fmt.Errorf("malformed body: %w", err)))
		return
	}
	var info ModelInfo
	var err error
	switch req.Action {
	case "load":
		if req.Path == "" {
			err = errs.BadInput(errs.StageServe, "serve.admin", req.Name, "load requires a path")
		} else {
			info, err = s.LoadFile(ctx, req.Name, req.Path)
		}
	case "alias":
		info, err = s.Alias(ctx, req.Name, req.Target)
	case "retire":
		info, err = s.Retire(ctx, req.Name)
	default:
		err = errs.BadInput(errs.StageServe, "serve.admin", "", "unknown action %q (want load, alias, or retire)", req.Action)
	}
	if err != nil {
		writeError(ctx, w, err)
		return
	}
	writeJSON(ctx, w, http.StatusOK, info)
}

// handleHealthz reports liveness: 200 while serving, 503 once draining so
// load balancers stop routing here before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, state := http.StatusOK, "ok"
	if s.Draining() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(r.Context(), w, status, struct {
		Status string `json:"status"`
	}{Status: state})
}

// writeJSON writes v as a JSON response.  Encoding a response struct cannot
// fail; a broken connection mid-write surfaces as the write error logged at
// Debug (the client is gone, nothing to do).
func writeJSON(ctx context.Context, w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the response types above; keep the contract anyway.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":"response encoding failed","status":500}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		obs.Log(ctx).Debug("response write failed", "err", err.Error())
	}
}
