package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The loopback harness runs sizingd's three CI modes against an
// in-process daemon over real HTTP on a loopback port:
//
//	RunLoadTest(opts, true)   the chaos load test: 16 jobs from 4
//	                          clients while the daemon is hard-killed
//	                          and restarted 3 times (BENCH_service.json)
//	RunLoadTest(opts, false)  the smoke run: one job, one client, no
//	                          kills
//	RunSessionBench(opts)     one single-gate timing query served by a
//	                          warm session, a cold session and a cold
//	                          job on k2 (BENCH_session.json)
//
// Every mode boots with the daemon's own Options, its state directory
// replaced by a temporary one, and fails when its acceptance gate does
// not hold, not only when the harness itself breaks.

// loadShape sizes a load run: jobs pushed by clients through the HTTP
// API while the daemon is killed and restarted kills times, each solve
// attempt padded by delay. The builtin circuits solve in microseconds,
// far inside the kill windows, so the padding gives the kills running
// work to interrupt.
type loadShape struct {
	jobs, clients, kills int
	delay                time.Duration
}

var (
	chaosLoad = loadShape{jobs: 16, clients: 4, kills: 3, delay: 150 * time.Millisecond}
	smokeLoad = loadShape{jobs: 1, clients: 1}
)

// Every load job is tree7 at minimum area under a tight 3-sigma
// deadline, which drives several outer iterations, so checkpoint
// boundaries exist for the kills to land between.
const (
	loadCircuit    = "tree7"
	loadObjective  = "area"
	loadConstraint = "mu+3sigma<=6"
	loadMaxOuter   = 12
	loadPoll       = 50 * time.Millisecond
	killEvery      = 400 * time.Millisecond
)

// The session bench serves k2 (1692 gates, the paper's largest Table 1
// circuit). A cold job is polled every 2 ms: a coarser poll would
// inflate its latency and so loosen the warm-vs-cold gate.
const (
	benchCircuit      = "k2"
	benchWarmNudges   = 300
	benchColdSessions = 20
	benchColdJobs     = 20
	coldJobPoll       = 2 * time.Millisecond
)

// harnessTimeout bounds a whole run.
const harnessTimeout = 120 * time.Second

// LatencySummary condenses one latency population, in milliseconds.
type LatencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

func summarize(ms []float64) LatencySummary {
	s := LatencySummary{Count: len(ms)}
	if len(ms) == 0 {
		return s
	}
	sort.Float64s(ms)
	s.P50 = quantileMS(ms, 0.50)
	s.P90 = quantileMS(ms, 0.90)
	s.P99 = quantileMS(ms, 0.99)
	s.Max = ms[len(ms)-1]
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	s.Mean = sum / float64(len(ms))
	return s
}

// quantileMS reads quantile p from ascending latencies with the same
// nearest-rank convention the telemetry histograms use.
func quantileMS(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sinceMS is the time since t0 in milliseconds, at microsecond
// resolution.
func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0).Microseconds()) / 1000 }

// timed runs op n times and summarizes the latency of each call.
func timed(n int, op func(i int) error) (LatencySummary, error) {
	ms := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return LatencySummary{}, err
		}
		ms = append(ms, sinceMS(t0))
	}
	return summarize(ms), nil
}

// WriteReport writes a harness report as indented JSON to path.
func WriteReport(path string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// loopback is the daemon under test: incarnations of a Server on one
// loopback address over one temporary state directory, and the client
// that talks to them. Clients share only addr and client; one
// goroutine at a time boots and stops incarnations.
type loopback struct {
	opts   Options
	delay  time.Duration
	addr   string // bound by the first incarnation, rebound by restarts
	client *http.Client

	srv      *Server
	hs       *http.Server
	counters map[string]int64
	restarts int
}

// serviceCounters are the per-job supervision counters summed across
// daemon incarnations into the load report.
var serviceCounters = []string{
	"service.jobs.accepted", "service.jobs.rejected",
	"service.jobs.completed", "service.jobs.failed",
	"service.jobs.cancelled", "service.jobs.retried",
	"service.jobs.recovered", "service.jobs.drained",
	"service.jobs.stalled",
}

// newLoopback boots the first incarnation over a fresh state
// directory; drain removes it.
func newLoopback(opts Options, delay time.Duration) (*loopback, error) {
	dir, err := os.MkdirTemp("", "sizingd-harness-*")
	if err != nil {
		return nil, err
	}
	opts.StateDir = dir
	l := &loopback{
		opts:     opts,
		delay:    delay,
		client:   &http.Client{Timeout: 15 * time.Second},
		counters: make(map[string]int64),
	}
	if err := l.start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return l, nil
}

// start boots an incarnation on the harness address, so clients keep
// one base URL across kills.
func (l *loopback) start() error {
	srv, err := New(l.opts)
	if err != nil {
		return err
	}
	if d := l.delay; d > 0 {
		srv.testSolveDelay = func(string, int) { time.Sleep(d) }
	}
	addr := l.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for tries := 0; ; tries++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if tries >= 20 {
			srv.Kill()
			return err
		}
		// The previous incarnation's listener may need a beat to
		// release the port after a kill.
		time.Sleep(50 * time.Millisecond)
	}
	if l.addr == "" {
		l.addr = ln.Addr().String()
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	srv.Start()
	l.srv, l.hs = srv, hs
	return nil
}

// stop detaches the current incarnation and folds its counters into
// the running totals once shut, by Kill or by Drain.
func (l *loopback) stop(shut func(*Server) error) error {
	srv, hs := l.srv, l.hs
	l.srv, l.hs = nil, nil
	if srv == nil {
		return nil // a restart failed to boot the next incarnation
	}
	hs.Close()
	err := shut(srv)
	for _, name := range serviceCounters {
		l.counters[name] += srv.Metrics().CounterValue(name)
	}
	return err
}

// restart tears the incarnation down the hard way (listener gone,
// contexts cancelled, nothing flushed beyond what the journal and the
// checkpoint files hold) and boots the next one.
func (l *loopback) restart() error {
	l.stop(func(srv *Server) error { srv.Kill(); return nil })
	l.restarts++
	return l.start()
}

// drain shuts the last incarnation down gracefully and removes the
// state directory.
func (l *loopback) drain() error {
	defer os.RemoveAll(l.opts.StateDir)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.stop(func(srv *Server) error { return srv.Drain(ctx) }); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// do is one JSON round trip: body, when set, is the request; a 2xx
// reply is decoded into out, when set. It returns the HTTP status.
func (l *loopback) do(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+l.addr+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// expect is do for a request that must answer want.
func (l *loopback) expect(ctx context.Context, method, path string, body, out any, want int) error {
	code, err := l.do(ctx, method, path, body, out)
	if err == nil && code != want {
		err = fmt.Errorf("HTTP %d, want %d", code, want)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// submit POSTs one job, retrying 429 (admission backpressure), 503 and
// refused connections (a daemon mid-restart). A 409 means an earlier
// attempt was journaled before a kill, so the job counts as accepted.
// It returns the 429s absorbed.
func (l *loopback) submit(ctx context.Context, spec JobSpec) (int64, error) {
	var rejected int64
	for {
		if err := ctx.Err(); err != nil {
			return rejected, fmt.Errorf("submit %s: %w", spec.ID, err)
		}
		code, err := l.do(ctx, http.MethodPost, "/v1/jobs", spec, nil)
		switch {
		case err != nil:
			sleepCtx(ctx, 50*time.Millisecond)
		case code == http.StatusAccepted || code == http.StatusConflict:
			return rejected, nil
		case code == http.StatusTooManyRequests:
			rejected++
			sleepCtx(ctx, 100*time.Millisecond)
		case code == http.StatusServiceUnavailable:
			sleepCtx(ctx, 100*time.Millisecond)
		default:
			return rejected, fmt.Errorf("submit %s: HTTP %d", spec.ID, code)
		}
	}
}

// poll reads a job's status every interval until it is terminal,
// riding through restarts: refused connections and brief non-200s
// while the next incarnation replays its journal.
func (l *loopback) poll(ctx context.Context, id string, every time.Duration) (string, error) {
	for {
		if err := ctx.Err(); err != nil {
			return "", fmt.Errorf("poll %s: %w", id, err)
		}
		var st JobStatus
		if code, err := l.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err == nil && code == http.StatusOK {
			switch st.State {
			case "done", "failed", "cancelled":
				return st.State, nil
			}
		}
		sleepCtx(ctx, every)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// LoadTestReport is the load run's result, serialized into
// BENCH_service.json by sizingd -loadtest.
type LoadTestReport struct {
	Config struct {
		Jobs         int    `json:"jobs"`
		Clients      int    `json:"clients"`
		Kills        int    `json:"kills"`
		Pool         int    `json:"pool"`
		QueueDepth   int    `json:"queue_depth"`
		Circuit      string `json:"circuit"`
		Objective    string `json:"objective"`
		Constraint   string `json:"constraint"`
		MaxOuter     int    `json:"max_outer"`
		SolveDelayMS int64  `json:"solve_delay_ms"`
	} `json:"config"`
	// Done/Failed/Cancelled partition the terminal states the clients
	// observed.
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Restarts counts the kill/restart cycles performed; Counters sums
	// the service.jobs.* counters across incarnations.
	Restarts int              `json:"restarts"`
	Counters map[string]int64 `json:"counters"`
	// Submit429 counts the admission rejections clients absorbed.
	Submit429 int64 `json:"submit_429"`
	// LatencyMS summarizes submit→terminal latency per job, restart
	// downtime included.
	LatencyMS  LatencySummary `json:"latency_ms"`
	WallMS     int64          `json:"wall_ms"`
	Throughput float64        `json:"throughput_jobs_per_sec"`
}

// RunLoadTest pushes jobs through the HTTP API and polls each to a
// terminal state. With chaos set it is the load test: 16 jobs from 4
// clients while the daemon is killed and restarted 3 times, every
// solve padded by 150 ms. Without, it is the smoke run: one job, one
// client, no kills, no padding.
//
// A harness failure (timeout, a daemon that would not restart) returns
// no report. A run that breaks the acceptance gate returns its report
// and an error: a job ended failed or cancelled or never ended, the
// accepted or completed counters summed over incarnations differ from
// the job count (each job is journaled and completed exactly once;
// resubmits after a kill hit 409), or the restarts differ from the
// kills.
func RunLoadTest(opts Options, chaos bool) (*LoadTestReport, error) {
	if chaos {
		return runLoad(opts, chaosLoad)
	}
	return runLoad(opts, smokeLoad)
}

func runLoad(opts Options, sh loadShape) (*LoadTestReport, error) {
	l, err := newLoopback(opts, sh.delay)
	if err != nil {
		return nil, err
	}
	rep := &LoadTestReport{}
	rep.Config.Jobs = sh.jobs
	rep.Config.Clients = sh.clients
	rep.Config.Kills = sh.kills
	rep.Config.Pool = l.srv.opt.Pool
	rep.Config.QueueDepth = l.srv.opt.QueueDepth
	rep.Config.Circuit = loadCircuit
	rep.Config.Objective = loadObjective
	rep.Config.Constraint = loadConstraint
	rep.Config.MaxOuter = loadMaxOuter
	rep.Config.SolveDelayMS = sh.delay.Milliseconds()
	ctx, cancel := context.WithTimeout(context.Background(), harnessTimeout)
	defer cancel()

	var (
		mu        sync.Mutex
		latencies []float64
		firstErr  error
		wg        sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	// Chaos: kill/restart cycles spread across the run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < sh.kills; k++ {
			select {
			case <-time.After(killEvery):
			case <-ctx.Done():
				return
			}
			if err := l.restart(); err != nil {
				fail(fmt.Errorf("restart %d: %w", k+1, err))
				return
			}
		}
	}()

	jobCh := make(chan int)
	start := time.Now()
	for c := 0; c < sh.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range jobCh {
				spec := JobSpec{
					ID:          fmt.Sprintf("load-%04d", n),
					Circuit:     loadCircuit,
					Objective:   loadObjective,
					Constraints: []string{loadConstraint},
					MaxOuter:    loadMaxOuter,
				}
				t0 := time.Now()
				rejected, err := l.submit(ctx, spec)
				state := ""
				if err == nil {
					state, err = l.poll(ctx, spec.ID, loadPoll)
				}
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				rep.Submit429 += rejected
				latencies = append(latencies, sinceMS(t0))
				switch state {
				case "done":
					rep.Done++
				case "failed":
					rep.Failed++
				case "cancelled":
					rep.Cancelled++
				}
				mu.Unlock()
			}
		}()
	}
	for n := 0; n < sh.jobs; n++ {
		select {
		case jobCh <- n:
		case <-ctx.Done():
			n = sh.jobs
		}
	}
	close(jobCh)
	wg.Wait()

	if err := l.drain(); err != nil && firstErr == nil {
		firstErr = err
	}
	rep.WallMS = time.Since(start).Milliseconds()
	if firstErr != nil {
		return nil, firstErr
	}
	rep.Restarts = l.restarts
	rep.Counters = l.counters
	rep.LatencyMS = summarize(latencies)
	if rep.WallMS > 0 {
		rep.Throughput = float64(sh.jobs) / (float64(rep.WallMS) / 1000)
	}

	var bad []string
	if total := rep.Done + rep.Failed + rep.Cancelled; total != sh.jobs {
		bad = append(bad, fmt.Sprintf("%d of %d jobs reached a terminal state", total, sh.jobs))
	}
	if rep.Failed+rep.Cancelled > 0 {
		bad = append(bad, fmt.Sprintf("%d job(s) failed and %d cancelled", rep.Failed, rep.Cancelled))
	}
	for _, name := range []string{"service.jobs.accepted", "service.jobs.completed"} {
		if n := rep.Counters[name]; n != int64(sh.jobs) {
			bad = append(bad, fmt.Sprintf("%s is %d, want %d", name, n, sh.jobs))
		}
	}
	if rep.Restarts != sh.kills {
		bad = append(bad, fmt.Sprintf("%d restarts, want %d", rep.Restarts, sh.kills))
	}
	if len(bad) > 0 {
		return rep, errors.New(strings.Join(bad, "; "))
	}
	return rep, nil
}

// SessionBenchReport is the session bench's result, serialized into
// BENCH_session.json by sizingd -sessionbench.
type SessionBenchReport struct {
	Config struct {
		Circuit      string `json:"circuit"`
		Gates        int    `json:"gates"`
		WarmNudges   int    `json:"warm_nudges"`
		ColdJobs     int    `json:"cold_jobs"`
		ColdSessions int    `json:"cold_sessions"`
	} `json:"config"`
	// WarmNudgeMS is the PATCH round-trip latency on the warm session.
	WarmNudgeMS LatencySummary `json:"warm_nudge_ms"`
	// ColdSessionMS is create+nudge+close per query.
	ColdSessionMS LatencySummary `json:"cold_session_ms"`
	// ColdJobMS is submit-and-poll-to-terminal per query.
	ColdJobMS LatencySummary `json:"cold_job_ms"`
	// Speedups are cold-job latency over warm-nudge latency, the
	// acceptance number (>= 10 required at the median).
	SpeedupP50  float64 `json:"speedup_cold_job_over_warm_p50"`
	SpeedupMean float64 `json:"speedup_cold_job_over_warm_mean"`
	// SessionSpeedupP50 is cold-session over warm-nudge at the median.
	SessionSpeedupP50 float64 `json:"speedup_cold_session_over_warm_p50"`
	WallMS            int64   `json:"wall_ms"`
}

// RunSessionBench serves the same single-gate timing query three ways
// on k2:
//
//	warm nudge    PATCH on a long-lived session: O(dirty cone) on the
//	              resident incremental engine (300 queries)
//	cold session  create + nudge + close per query: a full parse and
//	              analyze each time, no solve pipeline (20)
//	cold job      a minimal solve job submitted and polled to terminal:
//	              parse, analyze, journal fsyncs, scheduling (20)
//
// A harness failure returns no report. A warm median slower than a
// tenth of the cold-job median returns the report and an error.
func RunSessionBench(opts Options) (*SessionBenchReport, error) {
	l, err := newLoopback(opts, 0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), harnessTimeout)
	defer cancel()
	rep, err := sessionBench(ctx, l)
	if derr := l.drain(); derr != nil && err == nil {
		return nil, derr
	}
	return rep, err
}

func sessionBench(ctx context.Context, l *loopback) (*SessionBenchReport, error) {
	rep := &SessionBenchReport{}
	rep.Config.Circuit = benchCircuit
	rep.Config.WarmNudges = benchWarmNudges
	rep.Config.ColdJobs = benchColdJobs
	rep.Config.ColdSessions = benchColdSessions
	start := time.Now()

	var st SessionStatus
	if err := l.expect(ctx, http.MethodPost, "/v1/sessions", SessionSpec{ID: "bench-warm", Circuit: benchCircuit}, &st, http.StatusCreated); err != nil {
		return nil, err
	}
	rep.Config.Gates = st.Gates
	// Warm: cycle 16 gates through alternating speed factors.
	var err error
	rep.WarmNudgeMS, err = timed(benchWarmNudges, func(i int) error {
		var nr NudgeReply
		return l.expect(ctx, http.MethodPatch, "/v1/sessions/bench-warm/sizes",
			sizesBody{Sizes: map[string]float64{fmt.Sprintf("g%d", i%16): 1 + float64(i%2)*0.5}}, &nr, http.StatusOK)
	})
	if err != nil {
		return nil, err
	}

	rep.ColdSessionMS, err = timed(benchColdSessions, func(i int) error {
		id := fmt.Sprintf("bench-cs-%03d", i)
		path := "/v1/sessions/" + id
		if err := l.expect(ctx, http.MethodPost, "/v1/sessions", SessionSpec{ID: id, Circuit: benchCircuit}, nil, http.StatusCreated); err != nil {
			return err
		}
		if err := l.expect(ctx, http.MethodPatch, path+"/sizes", sizesBody{Sizes: map[string]float64{"g0": 1.5}}, nil, http.StatusOK); err != nil {
			return err
		}
		return l.expect(ctx, http.MethodDelete, path, nil, nil, http.StatusOK)
	})
	if err != nil {
		return nil, err
	}

	// The cold job is the pre-session answer to "what is the timing
	// after this one nudge": greedy area under a deadline the unit
	// sizing already meets.
	rep.ColdJobMS, err = timed(benchColdJobs, func(i int) error {
		spec := JobSpec{
			ID:          fmt.Sprintf("bench-cj-%03d", i),
			Circuit:     benchCircuit,
			Objective:   "area",
			Constraints: []string{"mu+3sigma<=1e9"},
		}
		if _, err := l.submit(ctx, spec); err != nil {
			return err
		}
		state, err := l.poll(ctx, spec.ID, coldJobPoll)
		if err == nil && state != "done" {
			err = fmt.Errorf("cold job %s ended %s", spec.ID, state)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	rep.WallMS = time.Since(start).Milliseconds()
	if rep.WarmNudgeMS.P50 > 0 {
		rep.SpeedupP50 = rep.ColdJobMS.P50 / rep.WarmNudgeMS.P50
		rep.SessionSpeedupP50 = rep.ColdSessionMS.P50 / rep.WarmNudgeMS.P50
	}
	if rep.WarmNudgeMS.Mean > 0 {
		rep.SpeedupMean = rep.ColdJobMS.Mean / rep.WarmNudgeMS.Mean
	}
	if rep.SpeedupP50 < 10 {
		return rep, fmt.Errorf("warm nudge p50 %.3fms is only %.1fx faster than the cold job p50 %.3fms (acceptance requires >= 10x)",
			rep.WarmNudgeMS.P50, rep.SpeedupP50, rep.ColdJobMS.P50)
	}
	return rep, nil
}
