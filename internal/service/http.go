package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/telemetry"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs               submit (202 Accepted once journaled)
//	GET    /v1/jobs               list every known job
//	GET    /v1/jobs/{id}          one job's status
//	GET    /v1/jobs/{id}/result   terminal result (409 until finished)
//	GET    /v1/jobs/{id}/events   SSE convergence stream (alm.outer …)
//	POST   /v1/jobs/{id}/cancel   request cancellation
//	DELETE /v1/jobs/{id}          same as cancel
//	/v1/sessions/…                warm what-if sessions (sessions_http.go)
//	GET    /healthz               liveness (200 while the process runs)
//	GET    /readyz                readiness (503 once draining)
//	GET    /metrics               Prometheus exposition
//	GET    /debug/vars            expvar JSON
//	GET    /debug/pprof/…         pprof suite
//
// Admission errors map onto statuses: 400 bad spec, 409 duplicate ID,
// 413 circuit too large, 429 queue full (with Retry-After), 503
// draining.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("PATCH /v1/sessions/{id}/sizes", s.handleSessionSizes)
	mux.HandleFunc("POST /v1/sessions/{id}/whatif", s.handleSessionWhatIf)
	mux.HandleFunc("GET /v1/sessions/{id}/timing", s.handleSessionTiming)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.SampleRuntime(s.metrics)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.WriteProm(w)
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// replayFlushEvery batches the SSE history replay's flushes: small
// enough that a client sees progress promptly on long histories,
// large enough that the replay is not one syscall per event.
const replayFlushEvery = 32

// apiError is the uniform error payload.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it writes the status line, so a value
// that does not encode (a NaN moment, say) answers 500 with an error
// body instead of the intended status with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		enc.Encode(apiError{Error: "service: encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// decodeStrict decodes exactly one JSON value from the request body:
// unknown fields are rejected, and so is anything after the value —
// without the trailing io.EOF check, `{"id":"a"}{"id":"b"}` (or any
// garbage suffix) would silently decode as the first value alone.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("service: trailing data after JSON body")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeStrict(w, r, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			writeErr(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull):
			// The admission contract: a full queue is back-pressure,
			// not failure — tell the client when to come back.
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrExists):
			writeErr(w, http.StatusConflict, err)
		case errors.Is(err, ErrTooLarge):
			writeErr(w, http.StatusRequestEntityTooLarge, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	// 202, not 200: the job is accepted and durable, not done.
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, done, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !done {
		writeErr(w, http.StatusConflict, errors.New("service: job not finished"))
		return
	}
	if res == nil {
		// Terminal without a result payload (e.g. cancelled while
		// queued): an empty object keeps the endpoint JSON.
		writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's convergence events as Server-Sent
// Events: the full history replays first, then live events until the
// job finishes or the client disconnects. Every event is one JSON
// object (`data: {...}`), deterministic across runs for the same job.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	if jb == nil {
		writeErr(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("service: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	hist, live := jb.hub.subscribe()
	if live != nil {
		defer jb.hub.unsubscribe(live)
	}
	ctx := r.Context()
	var sb strings.Builder
	for i, ev := range hist {
		// A disconnected client must not keep the handler replaying a
		// long history into a dead connection, and a connected one
		// should see events promptly rather than after the whole
		// replay — so poll the request context and flush in batches.
		if ctx.Err() != nil {
			return
		}
		sb.Reset()
		sb.WriteString("data: ")
		sb.WriteString(ev)
		sb.WriteString("\n\n")
		if _, err := w.Write([]byte(sb.String())); err != nil {
			return
		}
		if (i+1)%replayFlushEvery == 0 {
			fl.Flush()
		}
	}
	fl.Flush()
	if live == nil {
		// The stream already ended; the replay was complete.
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if _, err := w.Write([]byte("data: " + ev + "\n\n")); err != nil {
				return
			}
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}
