package service

import (
	"errors"
	"net/http"
	"strconv"
)

// The session endpoints (mounted by Handler):
//
//	POST   /v1/sessions                create a warm session (201 once
//	                                   journaled; body = SessionSpec)
//	GET    /v1/sessions                list the session roster
//	GET    /v1/sessions/{id}           one session's status
//	DELETE /v1/sessions/{id}           close a session
//	PATCH  /v1/sessions/{id}/sizes     apply size nudges
//	                                   (body = {"sizes":{"g3":1.5,...}})
//	POST   /v1/sessions/{id}/whatif    trial a nudge batch without
//	                                   mutating session state
//	GET    /v1/sessions/{id}/timing    timing view: ?k= overrides the
//	                                   risk factor, ?top= bounds the
//	                                   criticality list (default 16,
//	                                   0 = all gates)
//
// Error mapping matches the job endpoints: 400 bad spec/body, 404
// unknown session, 409 duplicate ID, 413 circuit too large, 429
// session roster full (Retry-After), 503 draining. Every mutating
// response carries `rebuilt`, true when this touch transparently
// rebuilt an engine the LRU had evicted.

// sizesBody is the PATCH /sizes and POST /whatif payload.
type sizesBody struct {
	Sizes map[string]float64 `json:"sizes"`
}

// writeSessionErr maps a session-layer error onto its HTTP status.
func writeSessionErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownSession):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrSessionLimit):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrExists):
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrTooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if err := decodeStrict(w, r, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.CreateSession(spec)
	if err != nil {
		writeSessionErr(w, err)
		return
	}
	// 201, not 202: unlike a job, the session is ready the moment the
	// create returns — the warm engine already holds a full sweep.
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.SessionStatus(r.PathValue("id"))
	if err != nil {
		writeSessionErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if err := s.CloseSession(r.PathValue("id")); err != nil {
		writeSessionErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handleSessionSizes(w http.ResponseWriter, r *http.Request) {
	var body sizesBody
	if err := decodeStrict(w, r, &body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.SessionNudge(r.PathValue("id"), body.Sizes)
	if err != nil {
		writeSessionErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleSessionWhatIf(w http.ResponseWriter, r *http.Request) {
	var body sizesBody
	if err := decodeStrict(w, r, &body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.SessionWhatIf(r.PathValue("id"), body.Sizes)
	if err != nil {
		writeSessionErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleSessionTiming(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var k *float64 // nil: the session default
	if v := q.Get("k"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, errors.New("service: bad k parameter"))
			return
		}
		k = &f
	}
	top := 16
	if v := q.Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, errors.New("service: bad top parameter"))
			return
		}
		top = n
	}
	rep, err := s.sessionTiming(r.PathValue("id"), k, top)
	if err != nil {
		writeSessionErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
