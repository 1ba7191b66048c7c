package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ssta"
	"repro/internal/stats"
)

// sessionReq issues one JSON request against the session endpoints.
func sessionReq(t *testing.T, ts *httptest.Server, method, path string, body any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSessionLifecycleHTTP walks the full session API over HTTP:
// create, list, status, nudge, what-if, timing, close.
func TestSessionLifecycleHTTP(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "s1", Circuit: "tree7"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d, want 201", resp.StatusCode)
	}
	st := decodeBody[SessionStatus](t, resp)
	if st.ID != "s1" || st.State != "warm" || st.Gates != 7 {
		t.Fatalf("create status = %+v", st)
	}
	if st.Mu <= 0 || st.Sigma <= 0 {
		t.Fatalf("create must report the baseline moments, got mu=%v sigma=%v", st.Mu, st.Sigma)
	}
	baseMu := st.Mu

	// Status and list see the same session.
	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/s1", nil)
	if got := decodeBody[SessionStatus](t, resp); got.ID != "s1" {
		t.Fatalf("status = %+v", got)
	}
	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions", nil)
	if list := decodeBody[[]SessionStatus](t, resp); len(list) != 1 || list[0].ID != "s1" {
		t.Fatalf("list = %+v", list)
	}

	// Speeding up a gate must lower the circuit delay mean.
	resp = sessionReq(t, ts, http.MethodPatch, "/v1/sessions/s1/sizes",
		sizesBody{Sizes: map[string]float64{"G": 2.0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nudge: HTTP %d, want 200", resp.StatusCode)
	}
	nr := decodeBody[NudgeReply](t, resp)
	if nr.Applied != 1 || nr.Rebuilt {
		t.Fatalf("nudge reply = %+v", nr)
	}
	if nr.Mu >= baseMu {
		t.Fatalf("speeding the root gate did not reduce mu: %v -> %v", baseMu, nr.Mu)
	}

	// A what-if probe reports the delta without moving the session.
	resp = sessionReq(t, ts, http.MethodPost, "/v1/sessions/s1/whatif",
		sizesBody{Sizes: map[string]float64{"A": 3.0}})
	wr := decodeBody[WhatIfReply](t, resp)
	if wr.Base.Mu != nr.Mu {
		t.Fatalf("whatif base mu %v, want the post-nudge %v", wr.Base.Mu, nr.Mu)
	}
	if wr.DeltaMu >= 0 {
		t.Fatalf("speeding g1 should help: delta_mu = %v", wr.DeltaMu)
	}

	// Timing exposes outputs, criticality and sensitivities.
	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/s1/timing?k=3&top=3", nil)
	tr := decodeBody[TimingReply](t, resp)
	if tr.Mu != nr.Mu || tr.K != 3 {
		t.Fatalf("timing reply = %+v", tr)
	}
	if tr.Phi <= tr.Mu {
		t.Fatalf("phi=%v must exceed mu=%v for k=3", tr.Phi, tr.Mu)
	}
	if len(tr.Outputs) != 1 || tr.Outputs[0].Name != "G" {
		t.Fatalf("outputs = %+v", tr.Outputs)
	}
	if len(tr.Critical) != 3 {
		t.Fatalf("top=3 returned %d rows", len(tr.Critical))
	}
	for i := 1; i < len(tr.Critical); i++ {
		if tr.Critical[i].Criticality > tr.Critical[i-1].Criticality {
			t.Fatalf("criticality not sorted: %+v", tr.Critical)
		}
	}

	resp = sessionReq(t, ts, http.MethodDelete, "/v1/sessions/s1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: HTTP %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/s1", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after close: HTTP %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSessionTimingExplicitKZero pins the timing query's risk factor:
// an explicit k=0 asks for mean-only timing (phi = mu), while an
// omitted k falls back to the session default.
func TestSessionTimingExplicitKZero(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()
	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "s1", Circuit: "tree7", K: 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()

	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/s1/timing?k=0", nil)
	tr := decodeBody[TimingReply](t, resp)
	if tr.K != 0 || tr.Phi != tr.Mu {
		t.Fatalf("k=0 timing: k=%v phi=%v mu=%v, want k=0 and phi=mu", tr.K, tr.Phi, tr.Mu)
	}
	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/s1/timing", nil)
	if tr = decodeBody[TimingReply](t, resp); tr.K != 2 || tr.Phi <= tr.Mu {
		t.Fatalf("default timing: k=%v phi=%v mu=%v, want the session's k=2", tr.K, tr.Phi, tr.Mu)
	}
}

// TestSessionAdmission pins the session error mapping: 400 bad spec,
// 404 unknown, 409 duplicate, 413 oversized, 429 roster full, plus
// 400s for bad nudge payloads.
func TestSessionAdmission(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1, MaxSessions: 2, MaxGates: 200})
	srv.Start()

	check := func(resp *http.Response, want int, what string) {
		t.Helper()
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: HTTP %d, want %d", what, resp.StatusCode, want)
		}
	}
	check(sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{Circuit: "no-such"}), http.StatusBadRequest, "bad circuit")
	check(sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{Circuit: "k2"}), http.StatusRequestEntityTooLarge, "oversized")
	check(sessionReq(t, ts, http.MethodGet, "/v1/sessions/nope", nil), http.StatusNotFound, "unknown status")
	check(sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "a", Circuit: "tree7"}), http.StatusCreated, "create a")
	check(sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "a", Circuit: "fig2"}), http.StatusConflict, "duplicate")
	check(sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "b", Circuit: "fig2"}), http.StatusCreated, "create b")
	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "c", Circuit: "tree7"})
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("roster-full rejection lacks Retry-After")
	}
	check(resp, http.StatusTooManyRequests, "roster full")

	check(sessionReq(t, ts, http.MethodPatch, "/v1/sessions/a/sizes",
		sizesBody{Sizes: map[string]float64{"nope": 1.5}}), http.StatusBadRequest, "unknown gate")
	check(sessionReq(t, ts, http.MethodPatch, "/v1/sessions/a/sizes",
		sizesBody{Sizes: map[string]float64{"i0": 1.5}}), http.StatusBadRequest, "non-gate node")
	check(sessionReq(t, ts, http.MethodPatch, "/v1/sessions/a/sizes",
		sizesBody{Sizes: map[string]float64{"A": -2}}), http.StatusBadRequest, "negative size")
	check(sessionReq(t, ts, http.MethodPatch, "/v1/sessions/a/sizes",
		sizesBody{Sizes: map[string]float64{}}), http.StatusBadRequest, "empty batch")
	check(sessionReq(t, ts, http.MethodGet, "/v1/sessions/a/timing?k=bogus", nil), http.StatusBadRequest, "bad k")
	check(sessionReq(t, ts, http.MethodGet, "/v1/sessions/a/timing?top=-1", nil), http.StatusBadRequest, "bad top")

	// A rejected nudge batch must not partially apply: the batch with
	// one bad entry leaves the session at its pre-batch state.
	check(sessionReq(t, ts, http.MethodPatch, "/v1/sessions/a/sizes",
		sizesBody{Sizes: map[string]float64{"A": 2, "nope": 1.5}}), http.StatusBadRequest, "mixed batch")
	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/a/timing", nil)
	tr := decodeBody[TimingReply](t, resp)
	for _, row := range tr.Critical {
		if row.Gate == "A" && row.Size != 1 {
			t.Fatalf("rejected batch partially applied: g1 size %v", row.Size)
		}
	}
}

// timingKey flattens the fields of a timing reply that must be
// bit-identical across evict/rebuild and interleavings (everything
// except the Rebuilt marker).
func timingKey(tr TimingReply) string {
	tr.Rebuilt = false
	b, _ := json.Marshal(tr)
	return string(b)
}

// TestSessionEvictRebuildBitIdentical pins the tentpole's transparency
// contract: an evicted-then-rebuilt session answers bit-identically to
// a never-evicted one that saw the same nudges.
func TestSessionEvictRebuildBitIdentical(t *testing.T) {
	// Budget of one byte: only the most recently touched session stays
	// warm, so every alternation forces an evict + rebuild.
	srv, ts := testServer(t, Options{Pool: 1, SessionBytes: 1})
	srv.Start()
	// The control server never evicts.
	ctl, cts := testServer(t, Options{Pool: 1})
	ctl.Start()

	for _, s := range []*httptest.Server{ts, cts} {
		resp := sessionReq(t, s, http.MethodPost, "/v1/sessions", SessionSpec{ID: "e", Circuit: "apex2"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	nudges := []map[string]float64{
		{"g0": 1.5},
		{"g1": 2.0, "g2": 1.25},
		{"g0": 1.1},
		{"g100": 4.0},
	}
	rebuilds := 0
	for i, nd := range nudges {
		// Evict "e" on the victim server by touching another session.
		resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: fmt.Sprintf("bump%d", i), Circuit: "tree7"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("bump create: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
		srv.sessMu.Lock()
		evicted := srv.sessions["e"].eng == nil
		srv.sessMu.Unlock()
		if !evicted {
			t.Fatalf("round %d: session e still warm under a 1-byte budget", i)
		}

		var replies [2]NudgeReply
		for j, s := range []*httptest.Server{ts, cts} {
			resp := sessionReq(t, s, http.MethodPatch, "/v1/sessions/e/sizes", sizesBody{Sizes: nd})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d nudge: HTTP %d", i, resp.StatusCode)
			}
			replies[j] = decodeBody[NudgeReply](t, resp)
		}
		if !replies[0].Rebuilt {
			t.Fatalf("round %d: evicted session did not report rebuilt", i)
		}
		if replies[1].Rebuilt {
			t.Fatalf("round %d: control session was evicted", i)
		}
		rebuilds++
		if replies[0].Mu != replies[1].Mu || replies[0].Sigma != replies[1].Sigma {
			t.Fatalf("round %d: rebuilt moments (%v, %v) != warm (%v, %v)",
				i, replies[0].Mu, replies[0].Sigma, replies[1].Mu, replies[1].Sigma)
		}

		// The full timing view — every output, criticality and gradient
		// entry — must match bit for bit too.
		var keys [2]string
		for j, s := range []*httptest.Server{ts, cts} {
			resp := sessionReq(t, s, http.MethodGet, "/v1/sessions/e/timing?top=0", nil)
			keys[j] = timingKey(decodeBody[TimingReply](t, resp))
		}
		if keys[0] != keys[1] {
			t.Fatalf("round %d: rebuilt timing view diverges from the never-evicted control", i)
		}
	}
	if got := srv.Metrics().CounterValue("service.sessions.rebuilt"); got < int64(rebuilds) {
		t.Fatalf("rebuilt counter %d, want >= %d", got, rebuilds)
	}
	if got := srv.Metrics().CounterValue("service.sessions.evicted"); got == 0 {
		t.Fatal("evicted counter never moved")
	}
}

// TestSessionConcurrentPatchLinearization runs disjoint PATCH batches
// from many goroutines and checks the final state equals a sequential
// application — bit for bit, for any interleaving.
func TestSessionConcurrentPatchLinearization(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()
	ctl, cts := testServer(t, Options{Pool: 1})
	ctl.Start()

	for _, s := range []*httptest.Server{ts, cts} {
		resp := sessionReq(t, s, http.MethodPost, "/v1/sessions", SessionSpec{ID: "p", Circuit: "apex2"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// 16 disjoint 4-gate batches over apex2's g0..g63.
	batches := make([]map[string]float64, 16)
	union := map[string]float64{}
	for i := range batches {
		b := map[string]float64{}
		for j := 0; j < 4; j++ {
			name := fmt.Sprintf("g%d", i*4+j)
			v := 1 + float64(i+1)*0.05 + float64(j)*0.01
			b[name] = v
			union[name] = v
		}
		batches[i] = b
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(batches))
	for _, b := range batches {
		wg.Add(1)
		go func(b map[string]float64) {
			defer wg.Done()
			data, _ := json.Marshal(sizesBody{Sizes: b})
			req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/sessions/p/sizes", bytes.NewReader(data))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("concurrent nudge: HTTP %d", resp.StatusCode)
			}
		}(b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Control: the union applied as one sequential batch.
	resp := sessionReq(t, cts, http.MethodPatch, "/v1/sessions/p/sizes", sizesBody{Sizes: union})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control nudge: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	var keys [2]string
	for j, s := range []*httptest.Server{ts, cts} {
		resp := sessionReq(t, s, http.MethodGet, "/v1/sessions/p/timing?top=0", nil)
		keys[j] = timingKey(decodeBody[TimingReply](t, resp))
	}
	if keys[0] != keys[1] {
		t.Fatal("concurrent PATCHes did not linearize to the sequential result")
	}
}

// TestSessionWhatIfLeavesStateUnchanged pins Trial/Rollback purity at
// the service layer: a what-if leaves the timing view bitwise intact.
func TestSessionWhatIfLeavesStateUnchanged(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "w", Circuit: "apex2"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = sessionReq(t, ts, http.MethodPatch, "/v1/sessions/w/sizes",
		sizesBody{Sizes: map[string]float64{"g40": 1.7}})
	resp.Body.Close()

	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/w/timing?top=0", nil)
	before := timingKey(decodeBody[TimingReply](t, resp))

	for i := 0; i < 5; i++ {
		resp = sessionReq(t, ts, http.MethodPost, "/v1/sessions/w/whatif",
			sizesBody{Sizes: map[string]float64{"g0": float64(2 + i), "g110": 1.3}})
		wr := decodeBody[WhatIfReply](t, resp)
		if wr.Trial.Mu == wr.Base.Mu && wr.Trial.Sigma == wr.Base.Sigma {
			t.Fatalf("whatif %d: trial did not move the moments", i)
		}
	}

	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/w/timing?top=0", nil)
	after := timingKey(decodeBody[TimingReply](t, resp))
	if before != after {
		t.Fatal("what-if probes mutated the session's timing state")
	}
}

// TestSessionRestartRecoversRoster pins the journal contract: a killed
// daemon's next incarnation still knows the roster (sans closed
// sessions), marks it recovered, and rebuilds on first touch.
func TestSessionRestartRecoversRoster(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{StateDir: dir, Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	if _, err := srv.CreateSession(SessionSpec{ID: "keep", Circuit: "tree7"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSession(SessionSpec{ID: "drop", Circuit: "fig2"}); err != nil {
		t.Fatal(err)
	}
	// Nudge "keep" so recovery visibly resets to the baseline.
	if _, err := srv.SessionNudge("keep", map[string]float64{"G": 2.0}); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseSession("drop"); err != nil {
		t.Fatal(err)
	}
	baseline, err := srv.CreateSession(SessionSpec{ID: "ref", Circuit: "tree7"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Kill()

	srv2, err := New(Options{StateDir: dir, Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	srv2.Start()
	if got := srv2.RecoveredSessions(); len(got) != 2 || got[0] != "keep" || got[1] != "ref" {
		t.Fatalf("recovered sessions = %v, want [keep ref]", got)
	}
	st, err := srv2.SessionStatus("keep")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Recovered || st.State != "evicted" {
		t.Fatalf("recovered status = %+v", st)
	}
	if _, err := srv2.SessionStatus("drop"); err == nil {
		t.Fatal("closed session survived the restart")
	}
	// First touch rebuilds at the *baseline* sizes (nudges are not
	// journaled — the documented durability contract).
	tr, err := srv2.SessionTiming("keep", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Rebuilt {
		t.Fatal("first touch after recovery did not report rebuilt")
	}
	if tr.Mu != baseline.Mu || tr.Sigma != baseline.Sigma {
		t.Fatalf("recovered session mu=%v sigma=%v, want the baseline %v/%v",
			tr.Mu, tr.Sigma, baseline.Mu, baseline.Sigma)
	}
	// A second create of the recovered ID still conflicts.
	if _, err := srv2.CreateSession(SessionSpec{ID: "keep", Circuit: "tree7"}); err == nil {
		t.Fatal("recovered session id was reusable")
	}
}

// TestSessionIdleReaper checks the idle timeout evicts warm engines
// (roster intact) without touching recently used ones.
func TestSessionIdleReaper(t *testing.T) {
	srv, _ := testServer(t, Options{Pool: 1, SessionIdleTimeout: 300 * time.Millisecond})
	srv.Start()
	if _, err := srv.CreateSession(SessionSpec{ID: "idle", Circuit: "tree7"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := srv.SessionStatus("idle")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "evicted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Still usable: the touch rebuilds.
	tr, err := srv.SessionTiming("idle", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Rebuilt {
		t.Fatal("touch after idle eviction did not rebuild")
	}
	if got := srv.Metrics().CounterValue("service.sessions.idle_evicted"); got == 0 {
		t.Fatal("idle_evicted counter never moved")
	}
}

// TestSessionCreateDrainingRejected pins the 503 path for sessions.
func TestSessionCreateDrainingRejected(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()
	srv.mu.Lock()
	srv.draining = true
	srv.mu.Unlock()
	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{Circuit: "tree7"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: HTTP %d, want 503", resp.StatusCode)
	}
	srv.mu.Lock()
	srv.draining = false
	srv.mu.Unlock()
}

// TestSessionGeneratedIDs checks create without an ID allocates
// sequential sess-… names that survive recovery.
func TestSessionGeneratedIDs(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()
	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{Circuit: "tree7"})
	st := decodeBody[SessionStatus](t, resp)
	if !strings.HasPrefix(st.ID, "sess-") {
		t.Fatalf("generated id = %q", st.ID)
	}
	resp = sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{Circuit: "fig2"})
	st2 := decodeBody[SessionStatus](t, resp)
	if st2.ID == st.ID {
		t.Fatalf("generated ids collide: %q", st.ID)
	}
}

// TestSessionNonFiniteNudgeRejected pins that a finite but vanishing
// size cannot poison a session: g6 at 1e-300 overflows its delay and
// drives apex2's circuit delay to NaN. The PATCH must answer 400 with
// an error body, the same batch as a what-if too, and the next timing
// reply must carry the pre-nudge state bit for bit.
func TestSessionNonFiniteNudgeRejected(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "s1", Circuit: "apex2"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/s1/timing?top=0", nil)
	before := timingKey(decodeBody[TimingReply](t, resp))

	bad := sizesBody{Sizes: map[string]float64{"g6": 1e-300}}
	for _, path := range []string{"/v1/sessions/s1/whatif", "/v1/sessions/s1/sizes"} {
		method := http.MethodPost
		if strings.HasSuffix(path, "/sizes") {
			method = http.MethodPatch
		}
		resp = sessionReq(t, ts, method, path, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: HTTP %d, want 400", method, path, resp.StatusCode)
		}
		if e := decodeBody[apiError](t, resp); e.Error == "" {
			t.Fatalf("%s %s: empty error body", method, path)
		}
	}

	resp = sessionReq(t, ts, http.MethodGet, "/v1/sessions/s1/timing?top=0", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timing after the rejected nudge: HTTP %d", resp.StatusCode)
	}
	if after := timingKey(decodeBody[TimingReply](t, resp)); after != before {
		t.Fatalf("timing after the rejected nudge differs from before it:\n%s\n%s", after, before)
	}
}

// TestSessionSizePolicy pins which sizes a PATCH accepts. Zero and
// negative sizes answer 400 over HTTP, and NaN and ±Inf, which JSON
// cannot carry, are rejected by SessionNudge; either way the session's
// Tmax stays bit for bit. Sizes outside the model's [1, limit] are
// accepted on purpose: after 0.5 or a size above the limit, Tmax is bit
// for bit a fresh ssta.Analyze at the session's sizes.
func TestSessionSizePolicy(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()
	resp := sessionReq(t, ts, http.MethodPost, "/v1/sessions", SessionSpec{ID: "s", Circuit: "tree7"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	ref, err := buildModel(&JobSpec{Circuit: "tree7"})
	if err != nil {
		t.Fatal(err)
	}
	sizes := ref.UnitSizes()
	gate, ok := ref.G.C.Lookup("A")
	if !ok {
		t.Fatal("tree7 has no gate A")
	}
	tmax := func() stats.MV {
		ss, err := srv.lookupSession("s")
		if err != nil {
			t.Fatal(err)
		}
		srv.sessMu.Lock()
		defer srv.sessMu.Unlock()
		return ss.eng.Tmax()
	}
	bits := func(mv stats.MV) [2]uint64 { return [2]uint64{math.Float64bits(mv.Mu), math.Float64bits(mv.Var)} }

	for _, tc := range []struct {
		name string
		size float64
		http bool // over HTTP; else through SessionNudge
		ok   bool
	}{
		{"zero", 0, true, false},
		{"negative", -1, true, false},
		{"NaN", math.NaN(), false, false},
		{"+Inf", math.Inf(1), false, false},
		{"-Inf", math.Inf(-1), false, false},
		{"below one", 0.5, true, true},
		{"above limit", 2 * ref.Limit, true, true},
	} {
		before := tmax()
		batch := map[string]float64{"A": tc.size}
		if tc.http {
			resp := sessionReq(t, ts, http.MethodPatch, "/v1/sessions/s/sizes", sizesBody{Sizes: batch})
			resp.Body.Close()
			want := http.StatusBadRequest
			if tc.ok {
				want = http.StatusOK
			}
			if resp.StatusCode != want {
				t.Fatalf("%s: PATCH size %v: HTTP %d, want %d", tc.name, tc.size, resp.StatusCode, want)
			}
		} else if _, err := srv.SessionNudge("s", batch); err == nil {
			t.Fatalf("%s: SessionNudge accepted size %v", tc.name, tc.size)
		}
		if !tc.ok {
			if bits(tmax()) != bits(before) {
				t.Fatalf("%s: rejected size %v moved Tmax from %+v to %+v", tc.name, tc.size, before, tmax())
			}
			continue
		}
		sizes[gate] = tc.size
		if got, want := tmax(), ssta.Analyze(ref, sizes, false).Tmax; bits(got) != bits(want) {
			t.Fatalf("%s: Tmax %+v after size %v, fresh Analyze %+v", tc.name, got, tc.size, want)
		}
	}
}
