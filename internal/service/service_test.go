package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/nlp"
)

// testServer boots a server on a temp state dir plus an httptest
// front end; the cleanup drains it.
func testServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.StateDir == "" {
		opt.StateDir = t.TempDir()
	}
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, ts
}

// deadlineSpec is the standard fast-but-multi-outer test job: tree7
// area minimization under a tight mu+3sigma deadline.
func deadlineSpec(id string) JobSpec {
	return JobSpec{
		ID:          id,
		Circuit:     "tree7",
		Objective:   "area",
		Constraints: []string{"mu+3sigma<=6"},
	}
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitTerminal polls a job to a terminal state over HTTP.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[JobStatus](t, resp)
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func TestSubmitSolveResult(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	resp := postJob(t, ts, deadlineSpec("t1"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	st := decodeBody[JobStatus](t, resp)
	if st.ID != "t1" {
		t.Fatalf("accepted id %q", st.ID)
	}

	st = waitTerminal(t, ts, "t1")
	if st.State != "done" {
		t.Fatalf("job ended %q (%s), want done", st.State, st.Error)
	}

	rr, err := http.Get(ts.URL + "/v1/jobs/t1/result")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", rr.StatusCode)
	}
	res := decodeBody[JobResult](t, rr)
	if len(res.S) == 0 || res.Mu <= 0 || res.Area <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Status == "" || res.Outer == 0 {
		t.Fatalf("solver bookkeeping missing: %+v", res)
	}

	// The supervision counters surface on /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(prom), "service_jobs_accepted_total 1") {
		t.Fatalf("/metrics lacks the accepted counter:\n%s", prom)
	}
}

// TestJobWorkersFieldIgnored pins the wire contract of JobSpec.Workers:
// a job posted with "workers": 8 passes the strict decoder and solves
// bit for bit the same as the job without the field, on both
// formulations.
func TestJobWorkersFieldIgnored(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	result := func(id, formulation, extra string) []byte {
		t.Helper()
		body := `{"id":"` + id + `","circuit":"tree7","objective":"area",` +
			`"constraints":["mu+3sigma<=6"],"formulation":"` + formulation + `"` + extra + `}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d, want 202", body, resp.StatusCode)
		}
		if st := waitTerminal(t, ts, id); st.State != "done" {
			t.Fatalf("job %s ended %q (%s), want done", id, st.State, st.Error)
		}
		rr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		res := decodeBody[JobResult](t, rr)
		res.RuntimeMS = 0 // the one wall-clock field
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, f := range []string{"reduced", "full"} {
		plain := result(f+"-plain", f, "")
		withWorkers := result(f+"-workers", f, `,"workers":8`)
		if !bytes.Equal(plain, withWorkers) {
			t.Fatalf("%s: \"workers\": 8 changed the result:\nwithout: %s\nwith:    %s", f, plain, withWorkers)
		}
	}
}

func TestUnknownAndUnfinished(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	hold := make(chan struct{})
	srv.testSolveDelay = func(string, int) { <-hold }
	srv.Start()
	defer close(hold)

	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: HTTP %d, want 404", resp.StatusCode)
	}
	postJob(t, ts, deadlineSpec("held")).Body.Close()
	if resp, _ := http.Get(ts.URL + "/v1/jobs/held/result"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished result: HTTP %d, want 409", resp.StatusCode)
	}
}

func TestAdmissionControl(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1, QueueDepth: 1})
	hold := make(chan struct{})
	srv.testSolveDelay = func(string, int) { <-hold }
	srv.Start()

	// One running (held), one queued — the queue is now full.
	postJob(t, ts, deadlineSpec("a")).Body.Close()
	waitState(t, srv, "a", JobRunning)
	postJob(t, ts, deadlineSpec("b")).Body.Close()

	resp := postJob(t, ts, deadlineSpec("c"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	resp.Body.Close()
	if srv.Metrics().CounterValue("service.jobs.rejected") != 1 {
		t.Fatal("rejected counter not incremented")
	}

	close(hold)
	waitTerminal(t, ts, "a")
	waitTerminal(t, ts, "b")

	// Resubmitting the rejected job after the queue clears succeeds.
	resp = postJob(t, ts, deadlineSpec("c"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after backpressure: HTTP %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	waitTerminal(t, ts, "c")
}

// waitState spins until a job reaches the wanted state.
func waitState(t *testing.T, srv *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := srv.Status(id)
		if err == nil && st.State == want.String() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
}

func TestSubmitValidation(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1, MaxGates: 4})
	srv.Start()

	cases := []struct {
		name string
		spec JobSpec
		code int
	}{
		{"bad id", JobSpec{ID: "../../etc/passwd", Circuit: "tree7", Objective: "mu"}, http.StatusBadRequest},
		{"dotdot id", JobSpec{ID: "..", Circuit: "tree7", Objective: "mu"}, http.StatusBadRequest},
		{"no circuit", JobSpec{ID: "x1", Objective: "mu"}, http.StatusBadRequest},
		{"unknown circuit", JobSpec{ID: "x2", Circuit: "zzz", Objective: "mu"}, http.StatusBadRequest},
		{"bad objective", JobSpec{ID: "x3", Circuit: "fig2", Objective: "speed"}, http.StatusBadRequest},
		{"bad constraint", JobSpec{ID: "x4", Circuit: "fig2", Objective: "mu", Constraints: []string{"mu>>1"}}, http.StatusBadRequest},
		{"greedy without deadline", JobSpec{ID: "x5", Circuit: "fig2", Objective: "mu", Greedy: true}, http.StatusBadRequest},
		{"too large", JobSpec{ID: "x6", Circuit: "tree7", Objective: "mu"}, http.StatusRequestEntityTooLarge},
		{"negative sigma_k", JobSpec{ID: "x7", Circuit: "fig2", Objective: "mu", SigmaK: -0.25}, http.StatusBadRequest},
		{"limit below 1", JobSpec{ID: "x8", Circuit: "fig2", Objective: "mu", Limit: 0.5}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJob(t, ts, c.spec)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}

	// fig2 (3 gates) fits under MaxGates and duplicates conflict.
	resp := postJob(t, ts, JobSpec{ID: "dup", Circuit: "fig2", Objective: "mu"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fig2 submit: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJob(t, ts, JobSpec{ID: "dup", Circuit: "fig2", Objective: "mu"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: HTTP %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	waitTerminal(t, ts, "dup")
}

func TestInlineNetlist(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	var sb strings.Builder
	if err := netlist.WriteCKT(&sb, netlist.Fig2Example()); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{ID: "inline", Netlist: sb.String(), Objective: "mu+3sigma"}
	resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("inline submit: HTTP %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()
	st := waitTerminal(t, ts, "inline")
	if st.State != "done" {
		t.Fatalf("inline job ended %q (%s)", st.State, st.Error)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1, QueueDepth: 4})
	hold := make(chan struct{})
	srv.testSolveDelay = func(string, int) { <-hold }
	srv.Start()

	postJob(t, ts, deadlineSpec("run")).Body.Close()
	waitState(t, srv, "run", JobRunning)
	postJob(t, ts, deadlineSpec("queued")).Body.Close()

	// Cancelling the queued job terminates it without ever running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/queued", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitTerminal(t, ts, "queued")
	if st.State != "cancelled" {
		t.Fatalf("queued job ended %q, want cancelled", st.State)
	}

	// Cancelling the running job takes effect at the next solver
	// boundary once released.
	cr, err := http.Post(ts.URL+"/v1/jobs/run/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	close(hold)
	st = waitTerminal(t, ts, "run")
	if st.State != "cancelled" {
		t.Fatalf("running job ended %q, want cancelled", st.State)
	}
	if n := srv.Metrics().CounterValue("service.jobs.cancelled"); n != 2 {
		t.Fatalf("cancelled counter %d, want 2", n)
	}
}

func TestRetryAfterNumericalFailure(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1, MaxRetries: 2, RetryBackoff: time.Millisecond})
	// Attempt 0 solves a poisoned problem: a persistent NaN objective
	// element defeats every recovery rung and exits NumericalFailure.
	// Attempt 1 runs clean, so exactly one service-level retry heals
	// the job.
	srv.testWrap = func(id string, attempt int, p *nlp.Problem) *nlp.Problem {
		if attempt > 0 {
			return p
		}
		wrapped, _ := faults.Wrap(p, []faults.Fault{{Elem: 0, Call: 1, Kind: faults.EvalNaN, Persist: true}}, nil)
		return wrapped
	}
	srv.Start()

	postJob(t, ts, deadlineSpec("heal")).Body.Close()
	st := waitTerminal(t, ts, "heal")
	if st.State != "done" {
		t.Fatalf("job ended %q (%s), want done after retry", st.State, st.Error)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if n := srv.Metrics().CounterValue("service.jobs.retried"); n != 1 {
		t.Fatalf("retried counter %d, want 1", n)
	}
	if st.Result == nil || st.Result.Retries != 1 {
		t.Fatalf("result lacks retry bookkeeping: %+v", st.Result)
	}
}

func TestRetriesExhaustedKeepsFallback(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1, MaxRetries: 1, RetryBackoff: time.Millisecond})
	// Every attempt is poisoned: the job must fail after MaxRetries,
	// and — because the spec carries a mu+Ksigma deadline — keep the
	// greedy fallback sizing as its result.
	srv.testWrap = func(id string, attempt int, p *nlp.Problem) *nlp.Problem {
		wrapped, _ := faults.Wrap(p, []faults.Fault{{Elem: 0, Call: 1, Kind: faults.EvalNaN, Persist: true}}, nil)
		return wrapped
	}
	srv.Start()

	postJob(t, ts, deadlineSpec("doomed")).Body.Close()
	st := waitTerminal(t, ts, "doomed")
	if st.State != "failed" {
		t.Fatalf("job ended %q, want failed", st.State)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if st.Result == nil || !st.Result.Fallback || len(st.Result.S) == 0 {
		t.Fatalf("failed job should keep the greedy fallback sizing: %+v", st.Result)
	}
}

func TestGreedyJob(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	spec := deadlineSpec("greedy")
	spec.Greedy = true
	postJob(t, ts, spec).Body.Close()
	st := waitTerminal(t, ts, "greedy")
	if st.State != "done" {
		t.Fatalf("greedy job ended %q (%s)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Status != "greedy" || st.Result.StatusCode != -1 {
		t.Fatalf("greedy result: %+v", st.Result)
	}
	if len(st.Result.S) == 0 || st.Result.Outer == 0 {
		t.Fatalf("greedy result lacks sizing steps: %+v", st.Result)
	}
}

func TestEventsStreamReplay(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()

	postJob(t, ts, deadlineSpec("ev")).Body.Close()
	waitTerminal(t, ts, "ev")

	resp, err := http.Get(ts.URL + "/v1/jobs/ev/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`data: {"scope":"job","name":"started"}`,
		`"scope":"alm","name":"outer"`,
		`"scope":"sizing","name":"result"`,
		`data: {"scope":"job","name":"done"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("event stream lacks %q:\n%s", want, text)
		}
	}
	// The replay is deterministic: a second read returns the same
	// stream byte for byte.
	resp2, err := http.Get(ts.URL + "/v1/jobs/ev/events")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(body, body2) {
		t.Fatal("event replay is not deterministic")
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	srv, err := New(Options{StateDir: t.TempDir(), Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()

	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: HTTP %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: HTTP %d, want 503", resp.StatusCode)
	}
	resp := postJob(t, ts, deadlineSpec("late"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: HTTP %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestGeneratedJobIDs(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1})
	srv.Start()
	spec := deadlineSpec("")
	resp := postJob(t, ts, spec)
	st := decodeBody[JobStatus](t, resp)
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("generated-id submit: HTTP %d, id %q", resp.StatusCode, st.ID)
	}
	if !validID(st.ID) {
		t.Fatalf("generated id %q is not valid", st.ID)
	}
	waitTerminal(t, ts, st.ID)
}

func TestJobTimeoutFailsJob(t *testing.T) {
	srv, ts := testServer(t, Options{Pool: 1, JobTimeout: 50 * time.Millisecond})
	hold := make(chan struct{})
	srv.testSolveDelay = func(string, int) {
		// Outlast the per-job deadline, then solve against the expired
		// context.
		select {
		case <-hold:
		case <-time.After(150 * time.Millisecond):
		}
	}
	srv.Start()
	defer close(hold)

	postJob(t, ts, deadlineSpec("slow")).Body.Close()
	st := waitTerminal(t, ts, "slow")
	if st.State != "failed" {
		t.Fatalf("timed-out job ended %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("timed-out job error %q", st.Error)
	}
}
