// Command ssta runs statistical static timing analysis on a circuit:
// the analytic linear-time sweep of the paper's references [1], [2],
// optionally cross-checked against Monte Carlo sampling, with a
// statistical-criticality report.
//
// Usage:
//
//	ssta -circuit tree7
//	ssta -circuit design.ckt -mc 100000 -crit 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/delay"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

func main() {
	var (
		circuitFlag = flag.String("circuit", "tree7", "built-in name or netlist file (.ckt/.blif/.bench)")
		sigmaK      = flag.Float64("sigmak", 0.25, "sigma model: sigma_t = sigmak * mu_t")
		mcSamples   = flag.Int("mc", 0, "Monte Carlo cross-check with this many samples (0 = off)")
		critN       = flag.Int("crit", 0, "print the N most critical gates (0 = off)")
		cornersK    = flag.Float64("corners", 0, "corner/pessimism report at mu +- k*sigma (0 = off)")
		seed        = flag.Int64("seed", 1, "Monte Carlo seed")
		canonical   = flag.Bool("canonical", false, "also run the correlation-aware canonical sweep")
		workers     = flag.Int("j", 0, "worker goroutines for the Monte Carlo cross-check, the only parallel stage; every analytic sweep is serial (0 = all CPUs, 1 = serial; results are identical for any value)")
		traceFile   = flag.String("trace", "", "write a JSONL analysis trace to this file (byte-identical for every -j)")
		metricsFlag = flag.Bool("metrics", false, "print the telemetry metrics summary table after the run")
		serveFlag   = flag.String("serve", "", "serve Prometheus /metrics, expvar and pprof on this address (e.g. localhost:9090); implies metrics collection")
		spansFile   = flag.String("spans", "", "write the wall-clock span tree as JSONL to this file after the run (tracetool -spans reads it)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file after the run")
		timeout     = flag.Duration("timeout", 0, "abort the analysis after this wall-clock budget and exit non-zero (0 = no limit)")
	)
	flag.Parse()
	// Zero turns each of these off; a negative value is a typo, not a
	// quieter "off".
	for _, f := range []struct {
		name string
		v    int
	}{{"mc", *mcSamples}, {"crit", *critN}} {
		if f.v < 0 {
			fatal(fmt.Errorf("-%s must be non-negative (0 = off), got %d", f.name, f.v))
		}
	}
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout must be non-negative (0 = no limit), got %v", *timeout))
	}
	if math.IsNaN(*cornersK) || math.IsInf(*cornersK, 0) || *cornersK < 0 {
		fatal(fmt.Errorf("-corners must be finite and non-negative, got %v", *cornersK))
	}
	sigma := delay.Proportional{K: *sigmaK}
	// The model is linear in the mean, so one unit of mean delay
	// exposes a bad factor.
	if err := delay.ValidateSigmaModel(sigma, 0, 1); err != nil {
		fatal(fmt.Errorf("-sigmak %v: %w", *sigmaK, err))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// SIGINT/SIGTERM cancel the analysis context: the analytic sweep
	// and the Monte Carlo shards observe it at their level/shard
	// boundaries and the run exits through the non-zero status line in
	// deadline() instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var sinks []telemetry.Recorder
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
		metrics.Publish("ssta")
		sinks = append(sinks, metrics)
	}
	rec := telemetry.Multi(sinks...)
	if *pprofAddr != "" {
		addr, err := telemetry.ServeDebug(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ssta: debug server at http://%s/debug/pprof/ (expvar at /debug/vars)\n", addr)
	}
	if *serveFlag != "" {
		addr, err := telemetry.Serve(*serveFlag, metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ssta: observability server at http://%s/metrics (pprof at /debug/pprof/, expvar at /debug/vars)\n", addr)
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
	m.Sigma = sigma
	S := m.UnitSizes()

	stats, _ := circ.ComputeStats()
	fmt.Printf("circuit %s: %d gates, %d inputs, %d outputs, depth %d\n",
		circ.Name, stats.Gates, stats.Inputs, stats.Outputs, stats.Depth)

	det := ssta.DetAnalyze(m, S)
	// The analytic sweep polls ctx at level boundaries, so -timeout and
	// SIGINT/SIGTERM stop it; the recorder sees the sweep either way.
	r, err := ssta.AnalyzeCtx(ctx, m, S, false, ssta.SweepOptions{Recorder: rec})
	if err != nil {
		deadline(err)
	}
	if rec != nil {
		rec.Event("ssta", "result",
			telemetry.F("det_tmax", det.Tmax),
			telemetry.F("mu", r.Tmax.Mu),
			telemetry.F("sigma", r.Tmax.Sigma()),
		)
	}
	fmt.Printf("deterministic Tmax: %.4f\n", det.Tmax)
	fmt.Printf("statistical Tmax:   mu = %.4f  sigma = %.4f\n", r.Tmax.Mu, r.Tmax.Sigma())
	if *canonical {
		can := ssta.AnalyzeCanonical(m, S)
		fmt.Printf("canonical Tmax:     mu = %.4f  sigma = %.4f (correlation-aware)\n",
			can.Tmax.Mu, can.Tmax.Sigma())
		if !math.IsNaN(can.OutputCorr) {
			fmt.Printf("first-two-outputs correlation: %.4f\n", can.OutputCorr)
		}
	}
	fmt.Printf("quantiles: 50%% = %.4f  84.1%% = %.4f  99.8%% = %.4f\n",
		r.Tmax.Mu, r.Tmax.Mu+r.Tmax.Sigma(), r.Tmax.Mu+3*r.Tmax.Sigma())
	// The three sigma-level corner sweeps run as lanes of one batched
	// traversal (ssta.DetBatch); each lane is bit-identical to its
	// scalar corner sweep.
	ck := ssta.KSweep(m, S, []float64{0, 1, 3})
	fmt.Printf("corner sweep (batched): k=0 %.4f  k=1 %.4f  k=3 %.4f\n", ck[0], ck[1], ck[2])

	if *cornersK > 0 {
		cr := ssta.Corners(m, S, *cornersK)
		fmt.Printf("corners (k=%.3g): best %.4f  typical %.4f  worst %.4f\n",
			cr.K, cr.Best, cr.Typical, cr.Worst)
		fmt.Printf("statistical mu+k*sigma = %.4f  pessimism vs worst corner = %.4f\n",
			cr.StatQuantile, cr.Pessimism)
	}

	path := det.CriticalPath(m)
	names := make([]string, len(path))
	for i, id := range path {
		names[i] = circ.Nodes[id].Name
	}
	fmt.Printf("deterministic critical path: %s\n", strings.Join(names, " -> "))

	if *critN > 0 {
		crit := ssta.Criticality(m, S)
		fmt.Println("statistical criticality (d muTmax / d mu_gate):")
		for _, id := range ssta.TopCritical(circ, crit, *critN) {
			fmt.Printf("  %-12s %.4f\n", circ.Nodes[id].Name, crit[id])
		}
	}

	if *mcSamples > 0 {
		cmp, err := montecarlo.CompareAnalyticCtx(ctx, m, S, r.Tmax, montecarlo.Options{
			Samples: *mcSamples, Seed: *seed, KeepSamples: true, Workers: *workers,
			Recorder: rec,
		})
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				deadline(err)
			}
			fatal(err)
		}
		if rec != nil {
			// Sharded sampling is bit-identical for every worker count,
			// so the moments are safe to trace.
			rec.Event("mc", "result",
				telemetry.I("samples", *mcSamples),
				telemetry.F("mu", cmp.MC.Mu),
				telemetry.F("sigma", cmp.MC.Sigma),
				telemetry.F("mu_err", cmp.MuErr),
				telemetry.F("sigma_err", cmp.SigmaErr),
			)
		}
		fmt.Printf("monte carlo (%d samples): mu = %.4f  sigma = %.4f\n",
			*mcSamples, cmp.MC.Mu, cmp.MC.Sigma)
		fmt.Printf("analytic-vs-MC error:     mu %.3g (%.2f%%)  sigma %.3g (%.1f%%)\n",
			cmp.MuErr, 100*cmp.MuErr/cmp.MC.Mu,
			cmp.SigmaErr, 100*cmp.SigmaErr/cmp.MC.Sigma)
		fmt.Printf("MC yield at analytic deadlines: mu %.1f%%  mu+sigma %.1f%%  mu+3sigma %.1f%%\n",
			100*cmp.MC.Yield(r.Tmax.Mu),
			100*cmp.MC.Yield(r.Tmax.Mu+r.Tmax.Sigma()),
			100*cmp.MC.Yield(r.Tmax.Mu+3*r.Tmax.Sigma()))
	}

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssta:", err)
	os.Exit(1)
}

// deadline reports a -timeout expiry or an interrupt with its own exit
// code so scripts can tell a cancelled analysis from a bad invocation.
func deadline(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ssta: interrupted:", err)
	} else {
		fmt.Fprintln(os.Stderr, "ssta: wall-clock budget exhausted:", err)
	}
	os.Exit(2)
}

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
