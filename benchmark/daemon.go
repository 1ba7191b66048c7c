package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/service"
	"repro/internal/sizing"
	"repro/internal/ssta"
)

// daemon is an in-process sizing daemon behind a loopback listener,
// served the way cmd/sizingd serves it.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
}

// daemonPool is the daemon's concurrent-solve count: one, for the one P
// a run has (see procs).
const daemonPool = 1

func startDaemon(workDir string, rec *recorder) (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{StateDir: dir, Pool: daemonPool, Recorder: rec.sink()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	srv.Start()
	return d, nil
}

// close shuts the listener, drains the daemon and removes its state.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// conn is one client connection: every request it sends shares a single
// keep-alive TCP connection.
type conn struct {
	base string
	hc   *http.Client
}

func dial(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx reply.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// rejected reports an admission refusal: 429 (queue or roster full) or
// 503 (draining).
func rejected(err error) bool {
	var se *statusError
	return errors.As(err, &se) && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable)
}

// do sends one request with an optional JSON body and decodes a 2xx
// reply into out, recording encode, round-trip and decode spans under
// parent.
func (c *conn) do(rec *recorder, parent spanRef, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		sp := rec.begin(parent, "json.encode")
		data, err := json.Marshal(body)
		rec.end(sp)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := rec.begin(parent, "http.roundtrip")
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.end(sp)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, msg: strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	sp = rec.begin(parent, "json.decode")
	err = json.Unmarshal(data, out)
	rec.end(sp)
	return err
}

// tally counts one client's operations.
type tally struct {
	attempted, ok, failed, rejected int
	latMS                           []float64            // per completed request, send to reply
	cpuSpans                        []cpuSpan            // the same on the process CPU clock
	dueMS                           []float64            // open loop: per completed operation, due to reply
	lateMS                          []float64            // open loop: how late each request was sent
	routeMS                         map[string][]float64 // per route: send to reply
	problems                        []error              // failed output checks
	end                             time.Time            // when the last operation completed
	// Solve jobs: queue wait, run time and the results' quality sums.
	queueMS, runMS   []float64
	areaSum, phi3Sum float64
	checkedJobs      int
	retries          int64
}

func newTally() *tally { return &tally{routeMS: map[string][]float64{}} }

// finish counts one finished operation; a request sent at sent on route
// also adds its service time to that route.
func (t *tally) finish(route string, sent time.Time, opErr, checkErr error) {
	done := time.Now()
	t.attempted++
	if route != "" {
		t.routeMS[route] = append(t.routeMS[route], ms(done.Sub(sent)))
	}
	t.end = done
	switch {
	case opErr != nil:
		t.failed++
		if rejected(opErr) {
			t.rejected++
		}
	case checkErr != nil:
		t.problems = append(t.problems, checkErr)
	default:
		t.ok++
	}
}

// add merges a client's tally into the outcome.
func (o *outcome) add(t *tally) {
	o.attempted += t.attempted
	o.ops += t.ok
	o.failed += t.failed
	o.latMS = append(o.latMS, t.latMS...)
	o.cpuSpans = append(o.cpuSpans, t.cpuSpans...)
	for _, p := range t.problems {
		o.checkFailed(p)
	}
}

// sizesBody is the PATCH /sizes and POST /whatif payload.
type sizesBody struct {
	Sizes map[string]float64 `json:"sizes"`
}

// reqKind is a session request type.
type reqKind int

const (
	reqPatch reqKind = iota
	reqWhatIf
	reqTiming
)

var routeOf = [...]string{reqPatch: "patch", reqWhatIf: "whatif", reqTiming: "timing"}

type sessionReq struct {
	kind  reqKind
	sizes map[string]float64 // patch and whatif: 1 to 4 gates
}

// stream is a seeded session request sequence over a circuit's gates:
// 70% PATCH /sizes, 20% POST /whatif, each on 1 to 4 gates with sizes
// uniform in [1, 3], and 10% GET /timing?top=10.
type stream struct {
	rng   *rand.Rand
	gates []string
}

func newStream(seed int64, m *delay.Model) *stream {
	ids := m.G.C.GateIDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = m.G.C.Nodes[id].Name
	}
	return &stream{rng: rand.New(rand.NewSource(seed)), gates: names}
}

func (s *stream) next() sessionReq {
	r := s.rng.Float64()
	if r >= 0.9 {
		return sessionReq{kind: reqTiming}
	}
	kind := reqPatch
	if r >= 0.7 {
		kind = reqWhatIf
	}
	n := 1 + s.rng.Intn(4)
	sizes := make(map[string]float64, n)
	for len(sizes) < n {
		sizes[s.gates[s.rng.Intn(len(s.gates))]] = 1 + 2*s.rng.Float64()
	}
	return sessionReq{kind: kind, sizes: sizes}
}

// streamSeed is client i's request stream seed. Like the circuit's
// structure it does not change with -seed: every seed sends the same
// requests under its own net names, so the sessions end at the same
// sizes.
func streamSeed(i int) int64 { return 1 + int64(i) }

// sessionClient drives one what-if session over its own connection. It
// mirrors every nudge it applies and checks every reply against the
// session's committed moments.
type sessionClient struct {
	id       string
	conn     *conn
	m        *delay.Model // the benchmark's own copy of the session circuit
	stream   *stream
	mirror   []float64
	last     service.Moments // committed moments as of the last PATCH
	unitPhi3 float64
}

// openSession creates a session on ckt and checks that its warm moments
// are those of the unsized circuit.
func openSession(rec *recorder, t *tally, base, id string, ckt []byte, m *delay.Model, seed int64) (*sessionClient, error) {
	sc := &sessionClient{id: id, conn: dial(base), m: m, stream: newStream(seed, m), mirror: m.UnitSizes()}
	sp := rec.begin(spanRef{}, "session.create")
	sent := time.Now()
	var st service.SessionStatus
	err := sc.conn.do(rec, sp, http.MethodPost, "/v1/sessions", service.SessionSpec{ID: id, Netlist: string(ckt)}, &st)
	t.routeMS["create"] = append(t.routeMS["create"], ms(time.Since(sent)))
	rec.end(sp)
	if err != nil {
		sc.conn.close()
		return nil, fmt.Errorf("create session %s: %w", id, err)
	}
	unit := ssta.Analyze(m, sc.mirror, false).Tmax
	if st.Mu != unit.Mu || st.Sigma != unit.Sigma() {
		sc.conn.close()
		return nil, fmt.Errorf("session %s opened at (%v, %v), the unsized analysis gives (%v, %v)",
			id, st.Mu, st.Sigma, unit.Mu, unit.Sigma())
	}
	sc.last = service.Moments{Mu: st.Mu, Sigma: st.Sigma}
	sc.unitPhi3 = phi3(unit)
	return sc, nil
}

// send issues req over HTTP. It returns the transport or HTTP error, and
// separately the check the reply failed.
func (sc *sessionClient) send(rec *recorder, req sessionReq) (opErr, checkErr error) {
	sp := rec.begin(spanRef{}, "session."+routeOf[req.kind])
	defer rec.end(sp)
	path := "/v1/sessions/" + sc.id
	switch req.kind {
	case reqPatch:
		var rep service.NudgeReply
		if err := sc.conn.do(rec, sp, http.MethodPatch, path+"/sizes", sizesBody{req.sizes}, &rep); err != nil {
			return err, nil
		}
		for name, s := range req.sizes {
			id, _ := sc.m.G.C.Lookup(name)
			sc.mirror[id] = s
		}
		sc.last = rep.Moments
		if rep.Applied != len(req.sizes) {
			return nil, fmt.Errorf("session %s: PATCH applied %d of %d nudges", sc.id, rep.Applied, len(req.sizes))
		}
	case reqWhatIf:
		var rep service.WhatIfReply
		if err := sc.conn.do(rec, sp, http.MethodPost, path+"/whatif", sizesBody{req.sizes}, &rep); err != nil {
			return err, nil
		}
		if rep.Base != sc.last {
			return nil, fmt.Errorf("session %s: whatif base %+v, committed %+v", sc.id, rep.Base, sc.last)
		}
	case reqTiming:
		var rep service.TimingReply
		if err := sc.conn.do(rec, sp, http.MethodGet, path+"/timing?top=10", nil, &rep); err != nil {
			return err, nil
		}
		if rep.Moments != sc.last {
			return nil, fmt.Errorf("session %s: timing %+v, committed %+v", sc.id, rep.Moments, sc.last)
		}
	}
	return nil, nil
}

// sendDirect sends req straight to the server's session methods, with
// no HTTP or JSON in between.
func sendDirect(srv *service.Server, id string, req sessionReq) error {
	var err error
	switch req.kind {
	case reqPatch:
		_, err = srv.SessionNudge(id, req.sizes)
	case reqWhatIf:
		_, err = srv.SessionWhatIf(id, req.sizes)
	case reqTiming:
		_, err = srv.SessionTiming(id, 0, 10)
	}
	return err
}

// closedLoop sends n requests back to back, each after the previous
// reply, counting them into t.
func (sc *sessionClient) closedLoop(rec *recorder, n int, t *tally) {
	for i := 0; i < n; i++ {
		req := sc.stream.next()
		sent, c0 := time.Now(), cpuSeconds()
		opErr, checkErr := sc.send(rec, req)
		t.finish(routeOf[req.kind], sent, opErr, checkErr)
		if opErr == nil && checkErr == nil {
			t.latMS = append(t.latMS, ms(t.end.Sub(sent)))
			t.cpuSpans = append(t.cpuSpans, cpuSpan{c0, cpuSeconds()})
		}
	}
}

// openLoop sends one request at each offset from start whether or not
// the schedule has fallen behind, timing each from when it was sent and
// from when it was due, and counting it into t. The connection carries
// one request at a time, so a request due while another is out waits
// for its reply.
func (sc *sessionClient) openLoop(rec *recorder, start time.Time, at []time.Duration, t *tally) {
	for _, off := range at {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		sent, c0 := time.Now(), cpuSeconds()
		t.lateMS = append(t.lateMS, ms(sent.Sub(due)))
		req := sc.stream.next()
		opErr, checkErr := sc.send(rec, req)
		t.finish(routeOf[req.kind], sent, opErr, checkErr)
		if opErr == nil && checkErr == nil {
			t.latMS = append(t.latMS, ms(t.end.Sub(sent)))
			t.cpuSpans = append(t.cpuSpans, cpuSpan{c0, cpuSeconds()})
			t.dueMS = append(t.dueMS, ms(t.end.Sub(due)))
		}
	}
}

// finish checks the session's final timing against a fresh analysis of
// the mirrored sizes. The check counts as an attempted operation, but
// not as a completed one: it falls outside the measured window.
func (sc *sessionClient) finish(rec *recorder, t *tally) {
	sp := rec.begin(spanRef{}, "session.final")
	var rep service.TimingReply
	err := sc.conn.do(rec, sp, http.MethodGet, "/v1/sessions/"+sc.id+"/timing?top=1", nil, &rep)
	rec.end(sp)
	t.attempted++
	switch r := ssta.Analyze(sc.m, sc.mirror, false).Tmax; {
	case err != nil:
		t.failed++
	case rep.Mu != r.Mu || rep.Sigma != r.Sigma():
		t.problems = append(t.problems, fmt.Errorf("session %s: final timing (%v, %v), analysis of the mirrored sizes gives (%v, %v)",
			sc.id, rep.Mu, rep.Sigma, r.Mu, r.Sigma()))
	}
}

// sessionCircuit generates the what-if sessions' circuit under the
// seed's net names.
func sessionCircuit(cfg *config) ([]byte, *delay.Model, error) {
	c, err := netlist.Generate(cfg.scale.session)
	if err != nil {
		return nil, nil, err
	}
	if c, err = renamed(c, cfg.seed); err != nil {
		return nil, nil, err
	}
	ckt, err := cktText(c)
	if err != nil {
		return nil, nil, err
	}
	m, err := buildModel(ckt)
	return ckt, m, err
}

// svcObs is what a run observed of the service layer, client side; the
// ladder turns it into the service.* metrics.
type svcObs struct {
	routeMS        map[string][]float64
	queueMS, runMS []float64
	rejected       int
	retries        int64
	// httpMS is the HTTP and JSON share of a session request's latency.
	httpMS float64
}

func (o *svcObs) add(t *tally) {
	for r, xs := range t.routeMS {
		o.routeMS[r] = append(o.routeMS[r], xs...)
	}
	o.queueMS = append(o.queueMS, t.queueMS...)
	o.runMS = append(o.runMS, t.runMS...)
	o.rejected += t.rejected
	o.retries += t.retries
}

// whatifInst is one closed-loop client on one session. On the one P a
// run has, a second client would only queue behind the first: the
// throughput stays that of one CPU and each request waits for the other
// client's.
type whatifInst struct {
	d      *daemon
	ckt    []byte
	m      *delay.Model
	reqs   int
	setup  *tally
	client *sessionClient
}

func setupWhatif(cfg *config, rec *recorder) (instance, error) {
	sp := rec.begin(spanRef{}, "setup.whatif")
	defer rec.end(sp)
	ckt, m, err := sessionCircuit(cfg)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.workDir, rec)
	if err != nil {
		return nil, err
	}
	w := &whatifInst{d: d, ckt: ckt, m: m, reqs: cfg.whatifReqs(), setup: newTally()}
	if w.client, err = openSession(rec, w.setup, d.base, "w0", ckt, m, streamSeed(0)); err != nil {
		d.close()
		return nil, err
	}
	return w, nil
}

func (w *whatifInst) close() error {
	w.client.conn.close()
	return w.d.close()
}

func (w *whatifInst) measure(rec *recorder) (*outcome, error) {
	out := &outcome{extra: metrics{}}
	t, sc := newTally(), w.client
	start := time.Now()
	sc.closedLoop(rec, w.reqs, t)
	out.elapsed = time.Since(start)
	sc.finish(rec, t)
	out.add(t)
	obs := &svcObs{routeMS: map[string][]float64{}}
	obs.add(w.setup)
	obs.add(t)
	out.area = w.m.SumSizes(sc.mirror)
	out.phi3Ratio = (sc.last.Mu + 3*sc.last.Sigma) / sc.unitPhi3
	routeExtras(out.extra, obs.routeMS)
	out.layers = &layerInput{m: w.m, ckt: w.ckt, sizes: sc.mirror, workers: 1, svc: obs}
	return out, nil
}

// routeExtras adds each route's median to the extra numbers.
func routeExtras(extra metrics, routeMS map[string][]float64) {
	for r, xs := range routeMS {
		extra[r+"_p50_ms"] = metric{quantile(sortedCopy(xs), 0.5), "ms"}
	}
}

// Mix offers sessions and jobs open loop, with Poisson arrivals as
// independent users make them. The rates keep the backlog from growing
// on one P: at 200 session requests and 5 jobs a second, a request that
// arrives during a solve waits for the scheduler to preempt it, the one
// connection falls behind, and over twenty runs the generator ended 1.5
// to 13 s late. At half those rates, the same mix, it ends within a
// second.
const (
	mixSessionRate = 100.0 // session requests per second
	mixJobRate     = 2.5   // solve jobs per second
	mixJobNetlists = 4
	pollEvery      = 5 * time.Millisecond
	// jobDrainLimit bounds how long mix waits after its window for the
	// jobs still running.
	jobDrainLimit = 60 * time.Second
)

// jobInput is one of mix's job circuits with its midpoint deadline.
type jobInput struct {
	ckt        []byte
	m          *delay.Model
	deadline   float64
	constraint string
	unitPhi3   float64
}

type mixInst struct {
	cfg     *config
	d       *daemon
	sessCkt []byte
	jobs    []jobInput
	setup   *tally
	sess    *sessionClient
	jconn   *conn
}

func setupMix(cfg *config, rec *recorder) (instance, error) {
	sp := rec.begin(spanRef{}, "setup.mix")
	defer rec.end(sp)
	ckt, m, err := sessionCircuit(cfg)
	if err != nil {
		return nil, err
	}
	jobs, err := jobInputs(cfg)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.workDir, rec)
	if err != nil {
		return nil, err
	}
	x := &mixInst{cfg: cfg, d: d, sessCkt: ckt, jobs: jobs, setup: newTally(), jconn: dial(d.base)}
	if x.sess, err = openSession(rec, x.setup, d.base, "m0", ckt, m, streamSeed(0)); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

// jobInputs builds mix's job circuits: renamings of one circuit under
// seeded net names, so every job does the same solver work. They share
// one deadline, set by the midpoint rule from one pre-solve.
func jobInputs(cfg *config) ([]jobInput, error) {
	base, err := netlist.Generate(cfg.scale.jobShape)
	if err != nil {
		return nil, err
	}
	ckt, err := cktText(base)
	if err != nil {
		return nil, err
	}
	m, err := buildModel(ckt)
	if err != nil {
		return nil, err
	}
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	best, err := sizing.Size(m, sizing.Spec{Objective: sizing.MinMuPlusKSigma(3), Solver: table1Solver, Workers: 1})
	if err != nil {
		return nil, err
	}
	d := midpoint(best.MuTmax+3*best.SigmaTmax, unit.Mu)
	jobs := make([]jobInput, 0, mixJobNetlists)
	for j := 0; j < mixJobNetlists; j++ {
		c, err := renamed(base, cfg.seed*mixJobNetlists+int64(j))
		if err != nil {
			return nil, err
		}
		ckt, err := cktText(c)
		if err != nil {
			return nil, err
		}
		m, err := buildModel(ckt)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, jobInput{
			ckt: ckt, m: m, deadline: d, unitPhi3: phi3(unit),
			constraint: "mu+3sigma<=" + strconv.FormatFloat(d, 'g', -1, 64),
		})
	}
	return jobs, nil
}

func (x *mixInst) close() error {
	if x.sess != nil {
		x.sess.conn.close()
	}
	x.jconn.close()
	return x.d.close()
}

// arrivals draws the arrival offsets of a Poisson process of the given
// rate over window, given that it makes its expected number of
// arrivals: that many offsets, each uniform over the window, in order.
// They bunch as a Poisson process's do, but every seed offers the same
// work. Left free, the job count went from 80 to 117 over twenty seeds,
// and ops_per_cpu_s with it from 247 down to 165.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	slices.Sort(out)
	return out
}

func (x *mixInst) measure(rec *recorder) (*outcome, error) {
	rng := rand.New(rand.NewSource(x.cfg.seed))
	sessAt := arrivals(rng, mixSessionRate, x.cfg.window())
	jobAt := arrivals(rng, mixJobRate, x.cfg.window())
	st := newTally()
	var jt *tally
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() {
		defer wg.Done()
		x.sess.openLoop(rec, start, sessAt, st)
	}()
	go func() {
		defer wg.Done()
		jt = x.runJobs(rec, start, jobAt)
	}()
	wg.Wait()
	last := st.end
	if jt.end.After(last) {
		last = jt.end
	}
	x.sess.finish(rec, st)
	jt.retries = x.d.srv.Metrics().CounterValue("service.jobs.retried")

	out := &outcome{elapsed: last.Sub(start), extra: metrics{}}
	out.add(st)
	out.add(jt)
	if jt.checkedJobs > 0 {
		out.area = jt.areaSum / float64(jt.checkedJobs)
		out.phi3Ratio = jt.phi3Sum / float64(jt.checkedJobs)
	}
	obs := &svcObs{routeMS: map[string][]float64{}}
	for _, t := range []*tally{x.setup, st, jt} {
		obs.add(t)
	}
	// The latency metrics time the session requests from when they were
	// sent; on the one P that includes the job work a request waited
	// behind. Timed from when they were due, they also count the wait
	// behind earlier requests on the one connection, which only the wall
	// clock sees and which swings with the host's steal by more than any
	// bound; those numbers stay here.
	sessDue, jobDue := sortedCopy(st.dueMS), sortedCopy(jt.dueMS)
	out.extra["session_due_p50_ms"] = metric{quantile(sessDue, 0.5), "ms"}
	out.extra["session_due_p99_ms"] = metric{quantile(sessDue, 0.99), "ms"}
	out.extra["job_p50_ms"] = metric{quantile(jobDue, 0.5), "ms"}
	out.extra["job_p90_ms"] = metric{quantile(jobDue, 0.9), "ms"}
	out.extra["late_p99_ms"] = metric{quantile(sortedCopy(st.lateMS), 0.99), "ms"}
	out.extra["jobs"] = metric{float64(len(jt.dueMS)), "count"}
	out.extra["session_requests"] = metric{float64(len(st.latMS)), "count"}
	routeExtras(out.extra, obs.routeMS)
	out.layers = &layerInput{m: x.sess.m, ckt: x.sessCkt, sizes: x.sess.mirror, workers: 1, svc: obs}
	return out, nil
}

// pendingJob is a submitted job not yet seen finished.
type pendingJob struct {
	id  string
	in  *jobInput
	due time.Time
	sp  spanRef
}

// runJobs submits one job at each offset from start and polls every
// unfinished job every pollEvery, all on one connection. A job's latency
// runs from when it was due to when a poll saw it done.
func (x *mixInst) runJobs(rec *recorder, start time.Time, at []time.Duration) *tally {
	t := newTally()
	var pending []pendingJob
	next := 0
	var nextPoll time.Time
	giveUp := start.Add(x.cfg.window() + jobDrainLimit)
	for next < len(at) || len(pending) > 0 {
		now := time.Now()
		if now.After(giveUp) {
			for _, p := range pending {
				t.finish("", p.due, fmt.Errorf("job %s unfinished after %v", p.id, jobDrainLimit), nil)
				rec.end(p.sp)
			}
			break
		}
		if next < len(at) && !now.Before(start.Add(at[next])) {
			if p, ok := x.submit(rec, t, next, start.Add(at[next])); ok {
				pending = append(pending, p)
			}
			next++
			continue
		}
		if len(pending) > 0 && !now.Before(nextPoll) {
			pending = pollJobs(rec, t, x.jconn, pending)
			nextPoll = time.Now().Add(pollEvery)
			continue
		}
		wake := nextPoll
		if next < len(at) && (len(pending) == 0 || start.Add(at[next]).Before(wake)) {
			wake = start.Add(at[next])
		}
		time.Sleep(time.Until(wake))
	}
	return t
}

// submit posts job i: min area under μ+3σ ≤ D on one of the job circuits.
func (x *mixInst) submit(rec *recorder, t *tally, i int, due time.Time) (pendingJob, bool) {
	in := &x.jobs[i%len(x.jobs)]
	spec := service.JobSpec{
		ID:          fmt.Sprintf("job%05d", i),
		Netlist:     string(in.ckt),
		Objective:   "area",
		Constraints: []string{in.constraint},
	}
	return submitJob(rec, t, x.jconn, in, spec, due)
}

// submitJob posts spec and returns the job to poll; a refused or failed
// submission counts as a failed operation.
func submitJob(rec *recorder, t *tally, c *conn, in *jobInput, spec service.JobSpec, due time.Time) (pendingJob, bool) {
	sp := rec.begin(spanRef{}, "job")
	sub := rec.begin(sp, "job.submit")
	sent := time.Now()
	var st service.JobStatus
	err := c.do(rec, sub, http.MethodPost, "/v1/jobs", spec, &st)
	t.routeMS["submit"] = append(t.routeMS["submit"], ms(time.Since(sent)))
	rec.end(sub)
	if err != nil {
		t.finish("", sent, err, nil)
		rec.end(sp)
		return pendingJob{}, false
	}
	return pendingJob{id: spec.ID, in: in, due: due, sp: sp}, true
}

// pollJobs asks for every pending job's status once and returns those
// still unfinished.
func pollJobs(rec *recorder, t *tally, c *conn, pending []pendingJob) []pendingJob {
	keep := pending[:0]
	for _, p := range pending {
		ps := rec.begin(p.sp, "job.poll")
		var st service.JobStatus
		err := c.do(rec, ps, http.MethodGet, "/v1/jobs/"+p.id, nil, &st)
		rec.end(ps)
		if err == nil && (st.State == "queued" || st.State == "running" || st.State == "retry-wait") {
			keep = append(keep, p)
			continue
		}
		rec.end(p.sp)
		if err == nil && st.State != "done" {
			err = fmt.Errorf("job %s ended %s: %s", p.id, st.State, st.Error)
		}
		var checkErr error
		if err == nil {
			err, checkErr = jobVerdict(p.in, st.Result)
		}
		t.finish("", p.due, err, checkErr)
		if err != nil || checkErr != nil {
			continue
		}
		t.dueMS = append(t.dueMS, ms(t.end.Sub(p.due)))
		if q, r, ok := jobTimes(st); ok {
			t.queueMS = append(t.queueMS, q)
			t.runMS = append(t.runMS, r)
		}
		t.areaSum += st.Result.Area
		t.phi3Sum += (st.Result.Mu + 3*st.Result.Sigma) / p.in.unitPhi3
		t.checkedJobs++
	}
	return keep
}

// jobVerdict classifies a finished job's result: a solver failure or a
// greedy fallback is a failed operation; otherwise checkJob decides.
func jobVerdict(in *jobInput, res *service.JobResult) (opErr, checkErr error) {
	if res == nil {
		return nil, errors.New("job done without a result")
	}
	if res.Fallback {
		return errors.New("job fell back to the greedy sizer"), nil
	}
	if res.StatusCode >= 0 && nlp.Status(res.StatusCode).Failed() {
		return fmt.Errorf("job solver status %s", res.Status), nil
	}
	return nil, checkJob(in, res)
}

// checkJob verifies a job result: its sizing re-analyzes bit for bit and
// meets the job's μ+3σ deadline.
func checkJob(in *jobInput, res *service.JobResult) error {
	if err := checkSizing(in.m, res.S, res.Mu, res.Sigma); err != nil {
		return err
	}
	if phi := res.Mu + 3*res.Sigma; phi > in.deadline*(1+1e-6) {
		return fmt.Errorf("mu+3sigma = %v misses the deadline %v", phi, in.deadline)
	}
	return nil
}

// jobTimes returns a job's queue wait and run time in ms from its status
// timestamps.
func jobTimes(st service.JobStatus) (queue, run float64, ok bool) {
	sub, err1 := time.Parse(time.RFC3339Nano, st.Submitted)
	beg, err2 := time.Parse(time.RFC3339Nano, st.Started)
	end, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, false
	}
	return ms(beg.Sub(sub)), ms(end.Sub(beg)), true
}
