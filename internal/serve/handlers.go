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
	"strconv"

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
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("POST /v1/transform", s.handleTransform)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
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
	Instances [][]float64 `json:"instances"`
}

// handleClassify serves POST /v1/classify.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.handleEval(w, r, "classify")
}

// handleTransform serves POST /v1/transform.
func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	s.handleEval(w, r, "transform")
}

// handleEval is the shared classify/transform path: resolve the model, put a
// deadline on the request, decode and validate the body, then evaluate it on
// this goroutine through the model's gate.  The route picks the result:
// predictions for "classify", feature rows for "transform".
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request, route string) {
	sw := obs.NewStopwatch()
	status := http.StatusOK
	defer func() {
		met := s.metrics()
		met.Counter("serve.http." + route + ".requests").Inc()
		met.Counter("serve.http.status." + strconv.Itoa(status)).Inc()
		met.Histogram("serve.http."+route+".ms", latencyBuckets).Observe(float64(sw.Elapsed().Microseconds()) / 1000)
	}()

	if s.Draining() {
		status = writeError(r.Context(), w, errs.Unavailable(errs.StageServe, "serve."+route, "", "server is draining"))
		return
	}
	name := r.URL.Query().Get("model")
	if name == "" {
		status = writeError(r.Context(), w, errs.BadInput(errs.StageServe, "serve."+route, "", "missing required ?model= parameter"))
		return
	}

	ctx, cancel, err := s.requestCtx(r, route, name)
	if err != nil {
		status = writeError(r.Context(), w, err)
		return
	}
	defer cancel()
	// Close's hard stop cancels the request too, waiting or evaluating.
	stop := context.AfterFunc(s.base, cancel)
	defer stop()

	sl, err := s.reg.resolve(name)
	if err != nil {
		status = writeError(ctx, w, err)
		return
	}
	if sl.retired.Load() {
		status = writeError(ctx, w, errs.Unavailable(errs.StageServe, "serve."+route, name, "model is retired"))
		return
	}

	instances, err := decodeInstances(ctx, w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		status = writeError(ctx, w, errs.Wrap(errs.StageServe, "serve."+route, name, err))
		return
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
		status = writeError(ctx, w, err)
		return
	}
	if preds != nil {
		writeJSON(ctx, w, http.StatusOK, classifyResponse{Model: name, Version: ver, Predictions: preds})
		return
	}
	writeJSON(ctx, w, http.StatusOK, transformResponse{Model: name, Version: ver, Features: rows})
}

// decodeInstances reads and validates the request body under the size cap,
// checking ctx between reads so a slow or stalled client trips the request
// deadline instead of holding a connection open indefinitely.
func decodeInstances(ctx context.Context, w http.ResponseWriter, r *http.Request, maxBytes int64) ([]ts.Series, error) {
	body := ctxReader{ctx: ctx, r: http.MaxBytesReader(w, r.Body, maxBytes)}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "missing or malformed Content-Type")
	}
	var instances []ts.Series
	switch mt {
	case "application/json":
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		var req evalRequest
		if err := dec.Decode(&req); err != nil {
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
		for _, row := range req.Instances {
			instances = append(instances, ts.Series(row))
		}
	case "text/tab-separated-values":
		d, err := ucr.ParseTSV(body, "request")
		if err != nil {
			return nil, decodeErr(ctx, err)
		}
		for _, in := range d.Instances {
			instances = append(instances, in.Values)
		}
	default:
		return nil, errs.BadInput(errs.StageServe, "serve.decode",
			"", "unsupported Content-Type %q (want application/json or text/tab-separated-values)", mt)
	}
	if len(instances) == 0 {
		return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "no instances in request body")
	}
	for i, inst := range instances {
		if len(inst) == 0 {
			return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "instance %d is empty", i)
		}
		for _, v := range inst {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, errs.BadInput(errs.StageServe, "serve.decode", "", "instance %d has non-finite values", i)
			}
		}
	}
	return instances, nil
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
// deadline even though the underlying Read itself cannot be interrupted.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.r.Read(p)
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
	if s.Draining() {
		writeJSON(r.Context(), w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	writeJSON(r.Context(), w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
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
