package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/sizing"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// workload is one named set of inputs the benchmark runs. setup builds
// the inputs and hands them to the program (parse, compile, bind; boot a
// daemon and open sessions); the instance then measures one run.
type workload struct {
	name  string
	setup func(cfg *config, rec *recorder) (instance, error)
}

type instance interface {
	// measure runs the workload once; rec is nil for untraced runs.
	measure(rec *recorder) (*outcome, error)
	close() error
}

// The workloads stress different layers; README.md gives each one's
// reason.
var workloads = []workload{
	// The paper's Table 1 flow: solver element evaluations over full
	// SSTA sweeps; Inc and the service sit idle.
	{"table1", setupTable1},
	// The persistent engine at 100k gates: O(cone) update and O(V)
	// adjoint per step; the solver and the service sit idle.
	{"greedy100k", setupGreedy},
	// Closed-loop what-if sessions: HTTP, JSON, the session queue and
	// Inc's update and trial paths; the solver sits idle.
	{"whatif", setupWhatif},
	// Open-loop sessions next to journaled solve jobs on one P.
	{"mix", setupMix},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one measured run produced.
type outcome struct {
	ops       int // operations completed
	attempted int
	failed    int
	elapsed   time.Duration
	latMS     []float64 // per-operation latency, wall clock
	// cpuSpans holds each operation's start and end on the process CPU
	// clock: the CPU time the whole process used between them is, on one
	// P, its wall latency without the time the host took the vCPU away or
	// the process sat idle.
	cpuSpans []cpuSpan
	// area is the Σ speed factors of the sizing the workload produced;
	// phi3Ratio is that sizing's μ+3σ over the unsized circuit's.
	area, phi3Ratio float64
	problems        []string // failed output checks
	extra           metrics
	layers          *layerInput
}

// checkFailed counts a failed output check against its operation.
func (o *outcome) checkFailed(err error) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, err.Error())
	}
}

// endToEnd returns the run's end-to-end metrics on the reference clock,
// given the CPU time the measurement spanned, and adds their wall-clock
// counterparts and the speed factor to the extra numbers.
func (o *outcome) endToEnd(clock *refClock, measured cpuSpan) metrics {
	lat := sortedCopy(o.latMS)
	refLat := make([]float64, len(o.cpuSpans))
	for i, s := range o.cpuSpans {
		refLat[i] = 1e3 * clock.seconds(s)
	}
	slices.Sort(refLat)
	ref := clock.seconds(measured)
	o.extra["ops_per_s"] = metric{float64(o.ops) / o.elapsed.Seconds(), "1/s"}
	o.extra["p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	o.extra["p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	o.extra["speed_factor"] = metric{measured.seconds() / ref, "ratio"}
	return metrics{
		"ops_per_ref_s": {float64(o.ops) / ref, "1/s"},
		"p50_ref_ms":    {quantile(refLat, 0.50), "ms"},
		"p99_ref_ms":    {quantile(refLat, 0.99), "ms"},
		"area":          {o.area, "sum_S"},
		"phi3_ratio":    {o.phi3Ratio, "ratio"},
	}
}

// buildModel is the program's circuit pipeline: parse, compile, bind.
func buildModel(ckt []byte) (*delay.Model, error) {
	c, err := netlist.ReadCKT(bytes.NewReader(ckt))
	if err != nil {
		return nil, err
	}
	g, err := netlist.Compile(c)
	if err != nil {
		return nil, err
	}
	return delay.Bind(g, delay.Default())
}

func cktText(c *netlist.Circuit) ([]byte, error) {
	var b bytes.Buffer
	if err := netlist.WriteCKT(&b, c); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// renamed returns c with every net renamed by a permutation drawn from
// seed. Declaration order, and with it every floating-point operation of
// timing and sizing, is unchanged: the program does identical work under
// every seed and produces the same sizings. Each workload's seed renames
// one fixed circuit, because a new structure per seed moves the work and
// the quality metrics more than a regression bound can absorb: on random
// structures of the k2 shape the Table 1 solves take from 11 to 16 s
// (interquartile range 19% of the median over ten seeds), and greedy100k's
// μ+3σ ratio spreads by 0.3%.
func renamed(c *netlist.Circuit, seed int64) (*netlist.Circuit, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.Nodes))
	name := func(id netlist.NodeID) string { return fmt.Sprintf("n%d", perm[id]) }
	out := netlist.New(c.Name)
	for i, nd := range c.Nodes {
		id := netlist.NodeID(i)
		if nd.Kind == netlist.KindInput {
			if _, err := out.AddInput(name(id)); err != nil {
				return nil, err
			}
			continue
		}
		fanin := make([]string, len(nd.Fanin))
		for k, f := range nd.Fanin {
			fanin[k] = name(f)
		}
		if _, err := out.AddGate(name(id), nd.Type, fanin...); err != nil {
			return nil, err
		}
	}
	for _, o := range c.Outputs {
		if err := out.MarkOutput(name(o)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func phi3(mv stats.MV) float64 { return mv.Mu + 3*mv.Sigma() }

// checkSizing verifies a sizing the program returned: every gate's speed
// factor is finite and inside [1, limit], and a fresh serial analysis at
// S reproduces the reported moments bit for bit.
func checkSizing(m *delay.Model, S []float64, mu, sigma float64) error {
	if len(S) != len(m.G.C.Nodes) {
		return fmt.Errorf("sizing has %d entries for %d nodes", len(S), len(m.G.C.Nodes))
	}
	for _, id := range m.G.C.GateIDs() {
		if s := S[id]; math.IsNaN(s) || s < 1 || s > m.Limit {
			return fmt.Errorf("gate %s speed factor %v outside [1, %v]", m.G.C.Nodes[id].Name, s, m.Limit)
		}
	}
	r := ssta.Analyze(m, S, false).Tmax
	if r.Mu != mu || r.Sigma() != sigma {
		return fmt.Errorf("reported moments (%v, %v) differ from re-analysis (%v, %v)", mu, sigma, r.Mu, r.Sigma())
	}
	return nil
}

// table1Row is one solve of the paper's Table 1 flow: min μ+kσ, or
// (constrained) min area under μ+kσ ≤ D.
type table1Row struct {
	k           float64
	constrained bool
}

// table1Rows is internal/bench.RunTable1's order; the constrained rows
// need D, which the midpoint rule takes from the min μ+3σ row.
var table1Rows = []table1Row{{0, false}, {1, false}, {3, false}, {0, true}, {1, true}, {3, true}}

// table1Golden holds the k2-like Table 1 areas at printed precision.
var table1Golden = []string{"3177.59", "3159.18", "3143.53", "1749.67", "1760.00", "1783.66"}

// table1Solver is RunTable1's solver setting.
var table1Solver = nlp.Options{TolGrad: 1e-5, TolCon: 1e-5, MaxInner: 1500}

// midpoint is RunTable1's deadline: halfway between the best achievable
// μ+3σ and the unsized mean, rounded to one decimal.
func midpoint(best3, unsizedMu float64) float64 {
	return math.Round(5*(best3+unsizedMu)) / 10
}

type table1Inst struct {
	cfg  *config
	m    *delay.Model
	ckt  []byte
	unit stats.MV
}

func setupTable1(cfg *config, rec *recorder) (instance, error) {
	sp := rec.begin(spanRef{}, "setup.table1")
	defer rec.end(sp)
	c, err := netlist.Generate(cfg.scale.table1)
	if err != nil {
		return nil, err
	}
	if cfg.seed != defaultSeed {
		if c, err = renamed(c, cfg.seed); err != nil {
			return nil, err
		}
	}
	ckt, err := cktText(c)
	if err != nil {
		return nil, err
	}
	m, err := buildModel(ckt)
	if err != nil {
		return nil, err
	}
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	return &table1Inst{cfg: cfg, m: m, ckt: ckt, unit: unit}, nil
}

func (t *table1Inst) close() error { return nil }

// measure runs the Table 1 flow table1Passes times. Every pass repeats
// the same solves and is checked in full; the quality metrics come from
// the first.
func (t *table1Inst) measure(rec *recorder) (*outcome, error) {
	out := &outcome{extra: metrics{}}
	rowMS := make([][]float64, t.cfg.scale.table1Rows)
	var last []float64
	start := time.Now()
	for pass := 0; pass < t.cfg.table1Passes(); pass++ {
		area, S, err := t.pass(rec, out, rowMS)
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			out.area, last = area, S
		}
	}
	out.elapsed = time.Since(start)
	for i, xs := range rowMS {
		if len(xs) > 0 {
			out.extra[fmt.Sprintf("row%d_cpu_s", i)] = metric{quantile(sortedCopy(xs), 0.5) / 1e3, "s"}
		}
	}
	if last == nil {
		last = t.m.UnitSizes()
	}
	out.layers = &layerInput{m: t.m, ckt: t.ckt, sizes: last, workers: 1}
	return out, nil
}

// pass runs the Table 1 solves once, counting them into out and each
// solve's CPU time into rowMS. It returns the area the pass reports and the
// last sizing it produced.
func (t *table1Inst) pass(rec *recorder, out *outcome, rowMS [][]float64) (float64, []float64, error) {
	golden := t.cfg.scale.name == "full" && t.cfg.seed == defaultSeed
	var best3, deadline, constrainedArea, allArea float64
	var last []float64
	for i, row := range table1Rows[:len(rowMS)] {
		spec := sizing.Spec{
			Objective: sizing.MinMuPlusKSigma(row.k),
			Solver:    table1Solver,
			Workers:   1,
			Recorder:  rec.sink(),
		}
		if row.constrained {
			if deadline == 0 {
				deadline = midpoint(best3, t.unit.Mu)
			}
			spec.Objective = sizing.MinArea()
			spec.Constraints = []sizing.Constraint{sizing.DelayLE(row.k, deadline)}
		}
		out.attempted++
		sp := rec.begin(spanRef{}, "sizing.Size")
		t0, c0 := time.Now(), cpuSeconds()
		res, err := sizing.Size(t.m, spec)
		d, cpu := time.Since(t0), cpuSpan{c0, cpuSeconds()}
		rec.end(sp)
		if err != nil {
			return 0, nil, fmt.Errorf("table1 row %d: %w", i, err)
		}
		if res.Fallback || res.Solver.Status.Failed() {
			out.failed++
			continue
		}
		if err := checkTable1Row(t.m, t.unit, row, deadline, res); err != nil {
			out.checkFailed(fmt.Errorf("table1 row %d: %w", i, err))
			continue
		}
		if golden {
			if got := fmt.Sprintf("%.2f", res.SumS); got != table1Golden[i] {
				out.checkFailed(fmt.Errorf("table1 row %d: area %s, EXPERIMENTS.md has %s", i, got, table1Golden[i]))
				continue
			}
		}
		out.ops++
		out.latMS = append(out.latMS, ms(d))
		out.cpuSpans = append(out.cpuSpans, cpu)
		rowMS[i] = append(rowMS[i], 1e3*cpu.seconds())
		allArea += res.SumS
		if row.constrained {
			constrainedArea += res.SumS
		}
		if i == 0 || (row.k == 3 && !row.constrained) {
			best3 = res.MuTmax + 3*res.SigmaTmax
			out.phi3Ratio = best3 / phi3(t.unit)
		}
		last = res.S
	}
	// area is the paper's area under a deadline; a smoke run has no
	// constrained row and reports the area of the rows it ran.
	if constrainedArea == 0 {
		return allArea, last, nil
	}
	return constrainedArea, last, nil
}

// checkTable1Row verifies one solve of the Table 1 flow: the sizing
// re-analyzes bit for bit, a constrained row meets its deadline, and a
// delay row beats the unsized circuit.
func checkTable1Row(m *delay.Model, unit stats.MV, row table1Row, deadline float64, res *sizing.Outcome) error {
	if err := checkSizing(m, res.S, res.MuTmax, res.SigmaTmax); err != nil {
		return err
	}
	phi := res.MuTmax + row.k*res.SigmaTmax
	if row.constrained {
		if phi > deadline*(1+1e-6) {
			return fmt.Errorf("mu+%gsigma = %v misses the deadline %v", row.k, phi, deadline)
		}
		return nil
	}
	if base := unit.Mu + row.k*unit.Sigma(); phi >= base {
		return fmt.Errorf("mu+%gsigma = %v does not beat the unsized %v", row.k, phi, base)
	}
	return nil
}

type greedyInst struct {
	cfg      *config
	m        *delay.Model
	ckt      []byte
	unitPhi3 float64
}

// greedyWorkers is the greedy sizer's sweep parallelism: one, for the
// one P a run has (see procs). On the reference machine two workers on
// two Ps took within 5% of one worker's wall time per step.
const greedyWorkers = 1

func setupGreedy(cfg *config, rec *recorder) (instance, error) {
	sp := rec.begin(spanRef{}, "setup.greedy100k")
	defer rec.end(sp)
	var buf bytes.Buffer
	if err := netlist.GenerateStream(&buf, cfg.scale.greedy); err != nil {
		return nil, err
	}
	c, err := netlist.ReadCKT(&buf)
	if err != nil {
		return nil, err
	}
	if c, err = renamed(c, cfg.seed); err != nil {
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
	unit := ssta.AnalyzeWorkers(m, m.UnitSizes(), false, greedyWorkers).Tmax
	return &greedyInst{cfg: cfg, m: m, ckt: ckt, unitPhi3: phi3(unit)}, nil
}

func (g *greedyInst) close() error { return nil }

func (g *greedyInst) measure(rec *recorder) (*outcome, error) {
	steps := g.cfg.greedySteps()
	clock := &stepClock{}
	opt := sizing.GreedyOptions{
		K: 3,
		// Half the unsized μ+3σ is out of reach, so every run takes
		// exactly MaxSteps steps.
		Deadline: 0.5 * g.unitPhi3,
		MaxSteps: steps,
		Workers:  greedyWorkers,
		Recorder: telemetry.Multi(clock, rec.sink()),
	}
	out := &outcome{attempted: steps, extra: metrics{}}
	sp := rec.begin(spanRef{}, "sizing.SizeGreedy")
	t0 := time.Now()
	res, err := sizing.SizeGreedy(g.m, opt)
	out.elapsed = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("greedy100k: %w", err)
	}
	if err := checkGreedy(g.m, res, steps); err != nil {
		out.failed = steps
		out.problems = append(out.problems, "greedy100k: "+err.Error())
	} else {
		out.ops = res.Steps
	}
	out.latMS, out.cpuSpans = clock.intervals()
	out.area = res.SumS
	out.phi3Ratio = (res.MuTmax + 3*res.SigmaTmax) / g.unitPhi3
	out.extra["steps"] = metric{float64(res.Steps), "count"}
	out.layers = &layerInput{m: g.m, ckt: g.ckt, sizes: res.S, workers: greedyWorkers, greedyStepMS: out.latMS}
	return out, nil
}

// checkGreedy verifies a greedy run: it ran all its steps and its sizing
// re-analyzes bit for bit.
func checkGreedy(m *delay.Model, res *sizing.GreedyResult, steps int) error {
	if res.Steps != steps {
		return fmt.Errorf("ran %d steps, want %d", res.Steps, steps)
	}
	return checkSizing(m, res.S, res.MuTmax, res.SigmaTmax)
}

// stepClock timestamps the greedy sizer's "greedy.step" events, which
// the coordinating goroutine emits once per step, on the wall and the
// process CPU clocks: the gaps between them are the step latencies. It
// ignores everything else it receives.
type stepClock struct {
	marks []time.Time
	cpu   []float64 // CPU seconds
}

func (c *stepClock) Event(scope, name string, _ ...telemetry.KV) {
	if scope == "greedy" && name == "step" {
		c.marks = append(c.marks, time.Now())
		c.cpu = append(c.cpu, cpuSeconds())
	}
}
func (c *stepClock) Count(string, int64)        {}
func (c *stepClock) Gauge(string, float64)      {}
func (c *stepClock) Span(string, time.Duration) {}

// intervals returns the steps' wall latencies in ms and their spans on
// the CPU clock.
func (c *stepClock) intervals() (wallMS []float64, cpu []cpuSpan) {
	for i := 1; i < len(c.marks); i++ {
		wallMS = append(wallMS, ms(c.marks[i].Sub(c.marks[i-1])))
		cpu = append(cpu, cpuSpan{c.cpu[i-1], c.cpu[i]})
	}
	return wallMS, cpu
}
