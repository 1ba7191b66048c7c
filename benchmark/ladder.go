package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/service"
	"repro/internal/sizing"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// layerInput is what a traced workload hands the layer ladder: its own
// circuit and sizes, and what it observed of the greedy sizer and the
// service.
type layerInput struct {
	m            *delay.Model
	ckt          []byte
	sizes        []float64
	workers      int
	greedyStepMS []float64 // step latencies of the workload's greedy run
	svc          *svcObs   // nil when the workload sends no requests
}

// perLayer lists every per-layer metric and its unit. A traced run
// reports all of them.
var perLayer = []metricDef{
	{"netlist.parse_ms", "ms"}, {"netlist.compile_ms", "ms"}, {"delay.bind_ms", "ms"},
	{"stats.max2_ns", "ns"}, {"stats.max2jac_ns", "ns"},
	{"ssta.forward_ms", "ms"}, {"ssta.grad_ms", "ms"}, {"ssta.grad_bytes", "B"}, {"ssta.grad_allocs", "count"},
	{"ssta.forward_sweeps", "count"}, {"ssta.adjoint_sweeps", "count"}, {"ssta.sweep_s", "s"},
	{"ssta.inc_new_ms", "ms"}, {"ssta.inc_step_ms", "ms"}, {"ssta.inc_step_allocs", "count"}, {"ssta.inc_dirty_nodes", "nodes"},
	{"ssta.hier_new_ms", "ms"}, {"ssta.hier_step_ms", "ms"},
	{"ssta.trial_ms", "ms"}, {"ssta.criticality_ms", "ms"},
	{"nlp.outer", "count"}, {"nlp.inner", "count"}, {"nlp.func_evals", "count"}, {"nlp.grad_evals", "count"},
	{"nlp.converged_frac", "ratio"}, {"nlp.setup_ms", "ms"}, {"nlp.inner_s", "s"}, {"nlp.grad_s", "s"}, {"nlp.merit_s", "s"},
	{"sizing.solve_s", "s"}, {"sizing.greedy_step_ms", "ms"},
	{"service.create_ms", "ms"}, {"service.patch_ms", "ms"}, {"service.whatif_ms", "ms"}, {"service.timing_ms", "ms"},
	{"service.submit_ms", "ms"}, {"service.http_ms", "ms"}, {"service.job_queue_ms", "ms"}, {"service.job_run_ms", "ms"},
	{"service.rejected", "count"}, {"service.retries", "count"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// runTraced measures the workload once untraced (the baseline of
// trace_overhead_pct), then once with a recorder, runs the layer ladder
// on the traced run's circuit and sizes, and writes the spans to
// tracePath. End-to-end numbers never come from here.
func runTraced(w workload, cfg *config, tracePath string) (*report, error) {
	meter := startMeter()
	defer meter.close()
	base, baseSpan, err := measureOnce(w, cfg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	inst, err := w.setup(cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	out, err := inst.measure(rec)
	span := cpuSpan{c0, cpuSeconds()}
	runtime.ReadMemStats(&m1)
	clock := meter.close()
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	got, probes, err := ladder(cfg, out.layers, rec)
	if err != nil {
		return nil, fmt.Errorf("layer ladder: %w", err)
	}
	got["go.alloc_mb"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), "MB"}
	got["go.gc_cycles"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	got["go.gc_pause_ms"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}
	// Reference seconds per completed operation, traced over untraced:
	// unlike throughput it also shows the overhead of an open-loop
	// workload.
	perOp := func(s cpuSpan, o *outcome) float64 { return clock.seconds(s) / float64(o.ops) }
	got["trace_overhead_pct"] = metric{100 * (perOp(span, out)/perOp(baseSpan, base) - 1), "%"}
	if err := got.complete(perLayer); err != nil {
		return nil, err
	}
	if err := rec.writeJSONL(tracePath); err != nil {
		return nil, err
	}
	rep := &report{metrics: got, extra: out.extra}
	for _, o := range []*outcome{base, out} {
		rep.attempted += o.attempted
		rep.failed += o.failed
		rep.problems = append(rep.problems, o.problems...)
	}
	rep.attempted += probes.attempted
	rep.failed += probes.failed + len(probes.problems)
	for _, p := range probes.problems {
		rep.problems = append(rep.problems, p.Error())
	}
	return rep, nil
}

// measureOnce sets the workload up and measures it once untraced,
// returning the outcome and the measurement's span on the CPU clock.
func measureOnce(w workload, cfg *config) (*outcome, cpuSpan, error) {
	inst, err := w.setup(cfg, nil)
	if err != nil {
		return nil, cpuSpan{}, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	c0 := cpuSeconds()
	out, err := inst.measure(nil)
	cpu := cpuSpan{c0, cpuSeconds()}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return out, cpu, err
}

// timeMedian calls f at least reps times and until minDur has passed,
// and returns the median duration of one call.
func timeMedian(reps int, minDur time.Duration, f func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < reps || time.Since(start) < minDur {
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(quantile(sortedCopy(ds), 0.5))
}

// Sinks keep the compiler from discarding the timed kernel calls.
var (
	mvSink  stats.MV
	jacSink stats.Jac2x4
)

// The ladder's fixed sizes.
const (
	operandPairs  = 4096 // Max2/Max2Jac operand pairs
	replayBumps   = 64   // greedy bumps replayed on Inc and Hier
	trials        = 256  // Trial/Rollback what-ifs
	probeJobs     = 2    // greedy jobs of the service probe
	probeDeadline = time.Minute
)

// ladder times each layer on the workload's circuit and sizes, and
// folds in what rec observed while the workload ran. A traced run
// reports every per-layer metric BENCHMARK.json lists, whichever
// workload it runs, so a layer the workload does not exercise (a solver
// on greedy100k, the service on table1) gets a small probe on the same
// circuit; README.md lists which metrics come from probes. The returned
// tally counts the probes and the ladder's own cross-checks.
func ladder(cfg *config, li *layerInput, rec *recorder) (metrics, *tally, error) {
	got := metrics{}
	t := newTally()
	m, S, w := li.m, li.sizes, li.workers
	gates := m.G.C.GateIDs()

	// netlist and delay: the program's circuit pipeline.
	var c *netlist.Circuit
	var g *netlist.Graph
	var err error
	parse := timeMedian(3, 200*time.Millisecond, func() {
		c, err = netlist.ReadCKT(bytes.NewReader(li.ckt))
	})
	if err != nil {
		return nil, nil, err
	}
	compile := timeMedian(3, 200*time.Millisecond, func() { g, err = netlist.Compile(c) })
	if err != nil {
		return nil, nil, err
	}
	bind := timeMedian(3, 200*time.Millisecond, func() { _, err = delay.Bind(g, delay.Default()) })
	if err != nil {
		return nil, nil, err
	}
	got["netlist.parse_ms"] = metric{ms(parse), "ms"}
	got["netlist.compile_ms"] = metric{ms(compile), "ms"}
	got["delay.bind_ms"] = metric{ms(bind), "ms"}

	// stats: the max kernels on operands from this circuit's arrivals.
	arr := ssta.Analyze(m, S, false).Arrival
	rng := rand.New(rand.NewSource(cfg.seed))
	as, bs := make([]stats.MV, operandPairs), make([]stats.MV, operandPairs)
	for i := range as {
		as[i], bs[i] = arr[gates[rng.Intn(len(gates))]], arr[gates[rng.Intn(len(gates))]]
	}
	max2 := timeMedian(5, 20*time.Millisecond, func() {
		for i := range as {
			mvSink = stats.Max2(as[i], bs[i])
		}
	})
	max2jac := timeMedian(5, 20*time.Millisecond, func() {
		for i := range as {
			mvSink, jacSink = stats.Max2Jac(as[i], bs[i])
		}
	})
	got["stats.max2_ns"] = metric{float64(max2.Nanoseconds()) / operandPairs, "ns"}
	got["stats.max2jac_ns"] = metric{float64(max2jac.Nanoseconds()) / operandPairs, "ns"}

	// ssta, flat sweeps.
	fwd := timeMedian(3, 200*time.Millisecond, func() { ssta.AnalyzeWorkers(m, S, true, w) })
	grad := timeMedian(3, 200*time.Millisecond, func() { ssta.GradMuPlusKSigmaWorkers(m, S, 3, w) })
	var ma, mb runtime.MemStats
	runtime.ReadMemStats(&ma)
	ssta.GradMuPlusKSigmaWorkers(m, S, 3, w)
	runtime.ReadMemStats(&mb)
	got["ssta.forward_ms"] = metric{ms(fwd), "ms"}
	got["ssta.grad_ms"] = metric{ms(grad), "ms"}
	got["ssta.grad_bytes"] = metric{float64(mb.TotalAlloc - ma.TotalAlloc), "B"}
	got["ssta.grad_allocs"] = metric{float64(mb.Mallocs - ma.Mallocs), "count"}

	// ssta, persistent engines: replay greedy bumps on Inc, then the same
	// bumps on Hier, which must agree with Inc bit for bit.
	t0 := time.Now()
	inc := ssta.NewInc(m, S, ssta.IncOptions{Workers: w, Recorder: rec.sink()})
	got["ssta.inc_new_ms"] = metric{ms(time.Since(t0)), "ms"}
	type bump struct {
		id netlist.NodeID
		s  float64
	}
	bumps := make([]bump, 0, replayBumps)
	phis := make([]float64, 0, replayBumps)
	incMS := make([]float64, 0, replayBumps)
	_, gr := inc.GradMuPlusKSigma(3)
	runtime.ReadMemStats(&ma)
	for len(bumps) < replayBumps {
		id := steepestGate(gates, inc.Sizes(), gr, m.Limit)
		if id < 0 {
			break
		}
		s := math.Min(inc.Sizes()[id]*1.05, m.Limit)
		t0 := time.Now()
		inc.SetSize(id, s)
		inc.Update()
		var phi float64
		phi, gr = inc.GradMuPlusKSigma(3)
		incMS = append(incMS, ms(time.Since(t0)))
		bumps = append(bumps, bump{id, s})
		phis = append(phis, phi)
	}
	runtime.ReadMemStats(&mb)
	if len(bumps) == 0 {
		return nil, nil, fmt.Errorf("every gate is at the size limit")
	}
	got["ssta.inc_step_ms"] = metric{quantile(sortedCopy(incMS), 0.5), "ms"}
	got["ssta.inc_step_allocs"] = metric{float64(mb.Mallocs-ma.Mallocs) / float64(len(bumps)), "count"}

	t0 = time.Now()
	h := ssta.NewHier(m, S, ssta.HierOptions{Workers: w})
	got["ssta.hier_new_ms"] = metric{ms(time.Since(t0)), "ms"}
	h.GradMuPlusKSigma(3)
	hierMS := make([]float64, 0, len(bumps))
	for i, b := range bumps {
		t0 := time.Now()
		h.SetSize(b.id, b.s)
		phi, _ := h.GradMuPlusKSigma(3)
		hierMS = append(hierMS, ms(time.Since(t0)))
		if phi != phis[i] {
			t.problems = append(t.problems, fmt.Errorf("Hier phi %v differs from Inc %v after bump %d", phi, phis[i], i))
			break
		}
	}
	got["ssta.hier_step_ms"] = metric{quantile(sortedCopy(hierMS), 0.5), "ms"}

	// ssta, what-if path: Trial+SetSize+Update+Rollback, then Criticality.
	type trial []bump
	batches := make([]trial, trials)
	for i := range batches {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			batches[i] = append(batches[i], bump{gates[rng.Intn(len(gates))], 1 + 2*rng.Float64()})
		}
	}
	before := inc.Update()
	trialMS := make([]float64, 0, trials)
	for _, b := range batches {
		t0 := time.Now()
		inc.Trial()
		for _, x := range b {
			inc.SetSize(x.id, x.s)
		}
		inc.Update()
		inc.Rollback()
		trialMS = append(trialMS, ms(time.Since(t0)))
	}
	if after := inc.Update(); after != before {
		t.problems = append(t.problems, fmt.Errorf("Rollback left moments %+v, want %+v", after, before))
	}
	got["ssta.trial_ms"] = metric{quantile(sortedCopy(trialMS), 0.5), "ms"}
	got["ssta.criticality_ms"] = metric{ms(timeMedian(3, 100*time.Millisecond, func() { inc.Criticality() })), "ms"}

	// nlp and sizing: the workload's solves, or a capped probe solve.
	if rec.eventCount("alm", "done") == 0 {
		t.attempted++
		res, err := sizing.Size(m, sizing.Spec{
			Objective: sizing.MinMuPlusKSigma(3),
			Solver:    nlp.Options{TolGrad: 1e-5, TolCon: 1e-5, MaxOuter: 1, MaxInner: 5},
			Start:     S,
			Workers:   w,
			Recorder:  rec,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("probe solve: %w", err)
		}
		if err := checkSizing(m, res.S, res.MuTmax, res.SigmaTmax); err != nil {
			t.problems = append(t.problems, fmt.Errorf("probe solve: %w", err))
		}
	}
	solves, alm := float64(rec.eventCount("alm", "done")), rec.almDone()
	got["nlp.outer"] = metric{alm.outer, "count"}
	got["nlp.inner"] = metric{alm.inner, "count"}
	got["nlp.func_evals"] = metric{alm.evals, "count"}
	got["nlp.grad_evals"] = metric{float64(rec.counter("engine.grad_evals")), "count"}
	got["nlp.converged_frac"] = metric{float64(alm.converged) / solves, "ratio"}
	got["nlp.setup_ms"] = metric{ms(rec.spanTotal("nlp.solve") - rec.spanTotal("nlp.inner")), "ms"}
	got["nlp.inner_s"] = metric{rec.spanTotal("nlp.inner").Seconds(), "s"}
	got["nlp.grad_s"] = metric{rec.spanTotal("engine.dispatch.grad").Seconds(), "s"}
	got["nlp.merit_s"] = metric{rec.spanTotal("engine.dispatch.merit").Seconds(), "s"}
	got["sizing.solve_s"] = metric{rec.spanTotal("sizing.total").Seconds(), "s"}
	got["ssta.forward_sweeps"] = metric{float64(rec.counter("ssta.forward_sweeps")), "count"}
	got["ssta.adjoint_sweeps"] = metric{float64(rec.counter("ssta.adjoint_sweeps")), "count"}
	got["ssta.sweep_s"] = metric{(rec.spanTotal("ssta.forward") + rec.spanTotal("ssta.adjoint")).Seconds(), "s"}

	steps := li.greedyStepMS
	if len(steps) == 0 {
		if steps, err = probeGreedy(m, w, rec, t); err != nil {
			return nil, nil, err
		}
	}
	got["sizing.greedy_step_ms"] = metric{quantile(sortedCopy(steps), 0.5), "ms"}
	got["ssta.inc_dirty_nodes"] = metric{rec.dirtyPerUpdate(), "nodes"}

	// service: the workload's requests and jobs, the probe's where it sent
	// none, and the HTTP share from the probe's paired requests.
	svc := li.svc
	if svc == nil {
		svc = &svcObs{routeMS: map[string][]float64{}}
	}
	if err := probeService(cfg, li, svc, rec, t); err != nil {
		return nil, nil, fmt.Errorf("service probe: %w", err)
	}
	p50 := func(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
	for _, r := range []string{"create", "patch", "whatif", "timing", "submit"} {
		got["service."+r+"_ms"] = metric{p50(svc.routeMS[r]), "ms"}
	}
	got["service.http_ms"] = metric{svc.httpMS, "ms"}
	got["service.job_queue_ms"] = metric{p50(svc.queueMS), "ms"}
	got["service.job_run_ms"] = metric{p50(svc.runMS), "ms"}
	got["service.rejected"] = metric{float64(svc.rejected), "count"}
	got["service.retries"] = metric{float64(svc.retries), "count"}
	return got, t, nil
}

// steepestGate is the greedy sizer's pick: the gate with the most
// negative gradient among those below the size limit (-1 when none).
func steepestGate(gates []netlist.NodeID, S, grad []float64, limit float64) netlist.NodeID {
	best, score := netlist.NodeID(-1), 0.0
	for _, id := range gates {
		if S[id] < limit-1e-12 && grad[id] < score {
			best, score = id, grad[id]
		}
	}
	return best
}

// probeGreedy runs a short greedy sizing on the circuit and returns its
// step latencies.
func probeGreedy(m *delay.Model, workers int, rec *recorder, t *tally) ([]float64, error) {
	const steps = 16
	unit := ssta.AnalyzeWorkers(m, m.UnitSizes(), false, workers).Tmax
	clock := &stepClock{}
	t.attempted++
	res, err := sizing.SizeGreedy(m, sizing.GreedyOptions{
		K: 3, Deadline: 0.5 * phi3(unit), MaxSteps: steps, Workers: workers,
		Recorder: telemetry.Multi(clock, rec.sink()),
	})
	if err != nil {
		return nil, fmt.Errorf("probe greedy: %w", err)
	}
	if err := checkGreedy(m, res, steps); err != nil {
		t.problems = append(t.problems, fmt.Errorf("probe greedy: %w", err))
	}
	wall, _ := clock.intervals()
	return wall, nil
}

// probeService boots a daemon on the circuit and sends seeded session
// requests twice, to one session over HTTP and to another straight
// through the server's session methods, alternating which goes first.
// Both sessions pass through the same states, so the difference of the
// two medians is the HTTP and JSON share. Where the workload sent no
// session requests, the HTTP half stands in for its route latencies;
// where it submitted no jobs, probeJobs greedy jobs with a deadline the
// unsized circuit meets stand in for its jobs.
func probeService(cfg *config, li *layerInput, svc *svcObs, rec *recorder, t *tally) (err error) {
	needSessions, needJobs := len(svc.routeMS["patch"]) == 0, len(svc.routeMS["submit"]) == 0
	d, err := startDaemon(cfg.workDir, rec)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := d.close(); err == nil {
			err = cerr
		}
	}()
	pt, jt := newTally(), newTally()
	defer func() {
		if needSessions {
			svc.add(pt)
		}
		if needJobs {
			svc.add(jt)
		}
		for _, x := range []*tally{pt, jt} {
			t.attempted += x.attempted
			t.failed += x.failed
			t.problems = append(t.problems, x.problems...)
		}
	}()

	sc, err := openSession(rec, pt, d.base, "pair-http", li.ckt, li.m, streamSeed(7))
	if err != nil {
		return err
	}
	defer sc.conn.close()
	if _, err := d.srv.CreateSession(service.SessionSpec{ID: "pair-direct", Netlist: string(li.ckt)}); err != nil {
		return err
	}
	var viaHTTP, direct []float64
	start := time.Now()
	for i := 0; minRouteSamples(pt) < cfg.scale.probeReqs || time.Since(start) < cfg.scale.probeTime; i++ {
		req := sc.stream.next()
		for k := 0; k < 2; k++ {
			sent := time.Now()
			if (i+k)%2 == 0 {
				opErr, checkErr := sc.send(rec, req)
				pt.finish(routeOf[req.kind], sent, opErr, checkErr)
				viaHTTP = append(viaHTTP, ms(pt.end.Sub(sent)))
			} else {
				err := sendDirect(d.srv, "pair-direct", req)
				pt.finish("", sent, err, nil)
				direct = append(direct, ms(pt.end.Sub(sent)))
			}
		}
	}
	sc.finish(rec, pt)
	svc.httpMS = quantile(sortedCopy(viaHTTP), 0.5) - quantile(sortedCopy(direct), 0.5)

	if needJobs {
		unit := ssta.Analyze(li.m, li.m.UnitSizes(), false).Tmax
		loose := 2 * phi3(unit)
		in := &jobInput{m: li.m, deadline: loose, unitPhi3: phi3(unit)}
		c := dial(d.base)
		defer c.close()
		var pending []pendingJob
		for i := 0; i < probeJobs; i++ {
			spec := service.JobSpec{
				ID: fmt.Sprintf("probe%d", i), Netlist: string(li.ckt), Objective: "area",
				Constraints: []string{"mu+3sigma<=" + strconv.FormatFloat(loose, 'g', -1, 64)},
				Greedy:      true,
			}
			if p, ok := submitJob(rec, jt, c, in, spec, time.Now()); ok {
				pending = append(pending, p)
			}
		}
		giveUp := time.Now().Add(probeDeadline)
		for len(pending) > 0 && time.Now().Before(giveUp) {
			time.Sleep(pollEvery)
			pending = pollJobs(rec, jt, c, pending)
		}
		for _, p := range pending {
			jt.finish("", p.due, fmt.Errorf("probe job %s unfinished", p.id), nil)
		}
		jt.retries += d.srv.Metrics().CounterValue("service.jobs.retried")
	}
	return nil
}

// minRouteSamples is the smallest sample count among the session routes.
func minRouteSamples(t *tally) int {
	n := math.MaxInt
	for _, r := range routeOf {
		n = min(n, len(t.routeMS[r]))
	}
	return n
}
