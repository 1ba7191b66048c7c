// Command statsize sizes the gates of a circuit under the statistical
// delay model of Jacobs & Berkelaar (DATE 2000).
//
// Usage:
//
//	statsize -circuit tree7 -objective mu+3sigma
//	statsize -circuit design.ckt -objective area -constraint "mu+3sigma<=120"
//	statsize -circuit fig2 -formulation full -solver newton -sizes
//
// Built-in circuits: tree7 (paper Figure 3), fig2 (paper Figure 2,
// Section 5 example), apex1, apex2, k2 (synthetic stand-ins for the
// paper's MCNC benchmarks). Anything else is read as a .ckt or .blif
// file by extension.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/sizing"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

func main() {
	var (
		circuitFlag   = flag.String("circuit", "tree7", "built-in name or netlist file (.ckt/.blif/.bench)")
		objectiveFlag = flag.String("objective", "mu", "mu | mu+sigma | mu+3sigma | mu+Ksigma | area | sigma | -sigma")
		constraints   multiFlag
		formulation   = flag.String("formulation", "reduced", "reduced | full")
		solver        = flag.String("solver", "lbfgs", "lbfgs | newton (newton needs -formulation full)")
		sigmaK        = flag.Float64("sigmak", 0.25, "sigma model: sigma_t = sigmak * mu_t")
		limit         = flag.Float64("limit", 3, "maximum speed factor")
		showSizes     = flag.Bool("sizes", false, "print per-gate speed factors")
		greedyFlag    = flag.Bool("greedy", false, "use the TILOS-style greedy sensitivity sizer (incremental SSTA engine) instead of the NLP solver; needs a mu+Ksigma<= constraint")
		verbose       = flag.Bool("v", false, "log solver progress (the telemetry event stream, rendered as text)")
		traceFile     = flag.String("trace", "", "write a JSONL solver trace to this file (byte-identical from run to run)")
		metricsFlag   = flag.Bool("metrics", false, "print the telemetry metrics summary table after the run")
		serveFlag     = flag.String("serve", "", "serve Prometheus /metrics, expvar and pprof on this address (e.g. localhost:9090); implies metrics collection")
		spansFile     = flag.String("spans", "", "write the wall-clock span tree as JSONL to this file after the run (tracetool -spans reads it)")
		watchdogFlag  = flag.Bool("watchdog", false, "monitor solver progress events and warn on stderr when the solve stalls")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile    = flag.String("memprofile", "", "write a heap profile to this file after the run")
		timeout       = flag.Duration("timeout", 0, "abort the solve after this wall-clock budget; the run exits non-zero with the best-so-far result (0 = no limit)")
		checkpointF   = flag.String("checkpoint", "", "write a solver checkpoint to this file periodically and on cancellation")
		resumeF       = flag.String("resume", "", "resume the solve from a checkpoint file written by -checkpoint")
	)
	flag.Var(&constraints, "constraint", `timing constraint, repeatable: "mu<=120", "mu+3sigma<=120", "mu=6.5"`)
	flag.Parse()
	// Zero turns the timeout off; a negative value is a typo, not a
	// quieter "off".
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must be non-negative (0 = no limit), got %v", *timeout))
	}
	sigma := delay.Proportional{K: *sigmaK}
	// The model is linear in the mean, so one unit of mean delay
	// exposes a bad factor.
	if err := delay.ValidateSigmaModel(sigma, 0, 1); err != nil {
		fatal(fmt.Errorf("-sigmak %v: %w", *sigmaK, err))
	}

	// Assemble the telemetry pipeline: every enabled sink consumes the
	// same event stream, so -v, -trace and -metrics cannot disagree.
	var sinks []telemetry.Recorder
	if *verbose {
		sinks = append(sinks, telemetry.NewLogSink(os.Stderr))
	}
	var trace *telemetry.TraceWriter
	if *traceFile != "" {
		var err error
		if trace, err = telemetry.CreateTrace(*traceFile); err != nil {
			fatal(err)
		}
		sinks = append(sinks, trace)
	}
	var metrics *telemetry.Metrics
	if *metricsFlag || *pprofAddr != "" || *serveFlag != "" || *spansFile != "" {
		metrics = telemetry.NewMetrics()
		metrics.Publish("statsize")
		sinks = append(sinks, metrics)
	}
	rec := telemetry.Multi(sinks...)
	var watchdog *telemetry.Watchdog
	if *watchdogFlag {
		watchdog = telemetry.NewWatchdog(rec, telemetry.WatchdogOptions{})
		rec = watchdog
	}
	if *pprofAddr != "" {
		addr, err := telemetry.ServeDebug(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "statsize: debug server at http://%s/debug/pprof/ (expvar at /debug/vars)\n", addr)
	}
	if *serveFlag != "" {
		addr, err := telemetry.Serve(*serveFlag, metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "statsize: observability server at http://%s/metrics (pprof at /debug/pprof/, expvar at /debug/vars)\n", addr)
	}
	var stopCPU func() error
	if *cpuProfile != "" {
		var err error
		if stopCPU, err = telemetry.StartCPUProfile(*cpuProfile); err != nil {
			fatal(err)
		}
	}

	circ, lib, err := loadCircuit(*circuitFlag)
	if err != nil {
		fatal(err)
	}
	g, err := netlist.Compile(circ)
	if err != nil {
		fatal(err)
	}
	m, err := delay.Bind(g, lib)
	if err != nil {
		fatal(err)
	}
	m.Limit = *limit
	m.Sigma = sigma

	var spec sizing.Spec
	spec.Objective, err = sizing.ParseObjective(*objectiveFlag)
	if err != nil {
		fatal(err)
	}
	for _, c := range constraints {
		con, err := sizing.ParseConstraint(c)
		if err != nil {
			fatal(err)
		}
		spec.Constraints = append(spec.Constraints, con)
	}
	switch *formulation {
	case "reduced":
		spec.Formulation = sizing.Reduced
	case "full":
		spec.Formulation = sizing.FullSpace
	default:
		fatal(fmt.Errorf("unknown formulation %q", *formulation))
	}
	switch *solver {
	case "lbfgs":
		spec.Solver.Method = nlp.LBFGS
	case "newton":
		spec.Solver.Method = nlp.NewtonCG
	default:
		fatal(fmt.Errorf("unknown solver %q", *solver))
	}
	spec.Recorder = rec
	spec.Solver.CheckpointPath = *checkpointF
	if *resumeF != "" {
		ck, err := nlp.LoadCheckpoint(*resumeF)
		if err != nil {
			fatal(err)
		}
		spec.Solver.Resume = ck
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// SIGINT/SIGTERM cancel the solve context instead of killing the
	// process: the solver observes the cancellation at the next
	// iteration boundary, flushes a final checkpoint when -checkpoint
	// is set (the nlp cancellation path), and the run exits through the
	// regular non-zero failed-status line below with the best-so-far
	// sizing printed — an interrupt never loses the iterate.
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The unit-size sweep is not cancellable: a deadline or an
	// interrupt is reported by the solver, with its best-so-far sizing.
	unitR, _ := ssta.AnalyzeCtx(context.Background(), m, m.UnitSizes(), false, ssta.SweepOptions{Recorder: rec})
	unit := unitR.Tmax
	fmt.Printf("circuit %s: %d gates, %d inputs, %d outputs\n",
		circ.Name, circ.NumGates(), circ.NumInputs(), len(circ.Outputs))
	fmt.Printf("unsized:   mu = %.4f  sigma = %.4f  sum(Si) = %d\n",
		unit.Mu, unit.Sigma(), circ.NumGates())

	// drainSinks flushes the telemetry sinks in a fixed order: trace
	// first (so `make trace` can validate it), then the metrics table,
	// then the runtime profiles. Both the NLP and the greedy paths end
	// through it.
	drainSinks := func() {
		if trace != nil {
			if err := trace.Close(); err != nil {
				fatal(err)
			}
		}
		if *metricsFlag {
			fmt.Println("metrics:")
			if err := metrics.WriteSummary(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if *spansFile != "" {
			if err := metrics.SpanTree().WriteFile(*spansFile); err != nil {
				fatal(err)
			}
		}
		if watchdog != nil {
			for _, s := range watchdog.Stalls() {
				fmt.Fprintf(os.Stderr,
					"statsize: watchdog: %s progress stalled at iteration %d (best %.6g, last %.6g, %d non-improving iterations)\n",
					s.Scope, s.Iter, s.Best, s.Last, s.Streak)
			}
		}
		if stopCPU != nil {
			if err := stopCPU(); err != nil {
				fatal(err)
			}
		}
		if *memProfile != "" {
			if err := telemetry.WriteHeapProfile(*memProfile); err != nil {
				fatal(err)
			}
		}
	}

	if *greedyFlag {
		opt, ok := sizing.GreedyFromSpec(spec)
		if !ok {
			fatal(fmt.Errorf(`-greedy needs a mu+Ksigma<= deadline constraint, e.g. -constraint "mu+3sigma<=120"`))
		}
		start := time.Now()
		gr, err := sizing.SizeGreedyCtx(ctx, m, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("objective: greedy  s.t. mu+%gsigma <= %g  [incremental SSTA]\n", opt.K, opt.Deadline)
		fmt.Printf("sized:     mu = %.4f  sigma = %.4f  sum(Si) = %.4f\n",
			gr.MuTmax, gr.SigmaTmax, gr.SumS)
		met := "deadline met"
		if !gr.Met {
			met = "deadline missed (all gates at the limit)"
		}
		fmt.Printf("greedy:    %d steps in %v — %s\n",
			gr.Steps, time.Since(start).Round(time.Millisecond), met)
		if *showSizes {
			printSizes(circ, gr.S)
		}
		drainSinks()
		if !gr.Met {
			fmt.Fprintf(os.Stderr, "statsize: greedy sizer missed the deadline: mu+%gsigma = %.6g > %g\n",
				opt.K, gr.MuTmax+opt.K*gr.SigmaTmax, opt.Deadline)
			os.Exit(2)
		}
		return
	}

	out, err := sizing.SizeCtx(ctx, m, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("objective: %v", spec.Objective)
	for _, c := range spec.Constraints {
		fmt.Printf("  s.t. %v", c)
	}
	fmt.Printf("  [%v / %v]\n", spec.Formulation, spec.Solver.Method)
	fmt.Printf("sized:     mu = %.4f  sigma = %.4f  sum(Si) = %.4f\n",
		out.MuTmax, out.SigmaTmax, out.SumS)
	fmt.Printf("solver:    %v in %v (%d outer, %d inner, violation %.2g)\n",
		out.Solver.Status, out.Runtime.Round(time.Millisecond),
		out.Solver.Outer, out.Solver.Inner, out.Solver.MaxViolation)
	if out.Fallback {
		fmt.Printf("fallback:  NLP solver failed numerically; sizes above are from the greedy sensitivity sizer\n")
	}
	fmt.Printf("timing:    setup %v  inner %v  solve %v\n",
		out.Solver.SetupTime.Round(time.Microsecond),
		out.Solver.InnerTime.Round(time.Microsecond),
		out.Solver.Duration.Round(time.Microsecond))

	if *showSizes {
		printSizes(circ, out.S)
	}

	drainSinks()

	// A failed solver status exits non-zero with a one-line diagnostic
	// after the sinks drain, so scripts can detect the condition while
	// the trace and best-so-far result above stay inspectable.
	if st := out.Solver.Status; st.Failed() {
		msg := fmt.Sprintf("statsize: solver %v: best objective %.6g after %d outer / %d inner",
			st, out.Solver.F, out.Solver.Outer, out.Solver.Inner)
		if *checkpointF != "" {
			msg += fmt.Sprintf(" (checkpoint: %s)", *checkpointF)
		}
		if out.Fallback {
			msg += " — greedy fallback sizing reported above"
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
}

// printSizes lists the per-gate speed factors sorted by gate name.
func printSizes(circ *netlist.Circuit, S []float64) {
	type gs struct {
		name string
		s    float64
	}
	var list []gs
	for _, id := range circ.GateIDs() {
		list = append(list, gs{circ.Nodes[id].Name, S[id]})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	fmt.Println("speed factors:")
	for _, e := range list {
		fmt.Printf("  %-12s %.4f\n", e.name, e.s)
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "statsize:", err)
	os.Exit(1)
}

// loadCircuit resolves a built-in name or reads a netlist file.
func loadCircuit(name string) (*netlist.Circuit, *delay.Library, error) {
	switch name {
	case "tree7":
		return netlist.Tree7(), delay.PaperTree(), nil
	case "fig2":
		return netlist.Fig2Example(), delay.Default(), nil
	case "apex1":
		return netlist.Apex1Like(), delay.Default(), nil
	case "apex2":
		return netlist.Apex2Like(), delay.Default(), nil
	case "k2":
		return netlist.K2Like(), delay.Default(), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var c *netlist.Circuit
	switch {
	case strings.HasSuffix(name, ".blif"):
		c, err = netlist.ReadBLIF(f)
	case strings.HasSuffix(name, ".bench"):
		c, err = netlist.ReadBench(f)
	default:
		c, err = netlist.ReadCKT(f)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return c, delay.Default(), nil
}
