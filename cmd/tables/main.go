// Command tables regenerates the paper's evaluation artifacts: Table 1
// (benchmark sizing formulations), Table 2 (tree objectives), Table 3
// (tree speed factors) and the section 4 timing-yield experiment. It
// also validates JSONL telemetry traces written by statsize/ssta.
//
// Usage:
//
//	tables                 # everything (Table 1 takes ~30 s)
//	tables -table 2        # just Table 2
//	tables -table baseline # LP vs statistical sizing; tree scale only
//	tables -table yield -samples 500000
//	tables -checktrace trace.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

func main() {
	var (
		table      = flag.String("table", "all", "1 | 2 | 3 | yield | baseline | ksweep | hier | all")
		samples    = flag.Int("samples", 200000, "Monte Carlo samples for the yield table")
		hierGates  = flag.Int("gates", 100000, "netlist size for the hier engine-vs-flat table")
		verbose    = flag.Bool("v", false, "log per-run solver progress for Table 1")
		checkTrace = flag.String("checktrace", "", "validate a JSONL telemetry trace and print an event census instead of running tables")
	)
	flag.Parse()
	if *hierGates <= 0 {
		fatal(fmt.Errorf("-gates must be positive, got %d", *hierGates))
	}

	if *checkTrace != "" {
		if err := runCheckTrace(*checkTrace); err != nil {
			fatal(err)
		}
		return
	}

	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	run1 := func() {
		t, err := bench.RunTable1(bench.Table1Circuits(), logf)
		if err != nil {
			fatal(err)
		}
		t.Format(os.Stdout)
	}
	run2 := func() {
		t, err := bench.RunTable2()
		if err != nil {
			fatal(err)
		}
		t.Format(os.Stdout)
	}
	run3 := func() {
		t, err := bench.RunTable3()
		if err != nil {
			fatal(err)
		}
		t.Format(os.Stdout)
	}
	runYield := func() {
		y, err := bench.RunYield(*samples)
		if err != nil {
			fatal(err)
		}
		y.Format(os.Stdout)
	}
	runBaseline := func() {
		b, err := bench.RunBaseline(*samples)
		if err != nil {
			fatal(err)
		}
		b.Format(os.Stdout)
	}
	runKSweep := func() {
		t, err := bench.RunKSweep()
		if err != nil {
			fatal(err)
		}
		t.Format(os.Stdout)
	}
	runHier := func() {
		t, err := bench.RunHier(*hierGates, logf)
		if err != nil {
			fatal(err)
		}
		t.Format(os.Stdout)
	}

	switch *table {
	case "1":
		run1()
	case "2":
		run2()
	case "3":
		run3()
	case "yield":
		runYield()
	case "baseline":
		runBaseline()
	case "ksweep":
		runKSweep()
	case "hier":
		runHier()
	case "all":
		run2()
		run3()
		runKSweep()
		runYield()
		runBaseline()
		run1()
	default:
		fatal(fmt.Errorf("unknown table %q", *table))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

// runCheckTrace parses and schema-validates a JSONL telemetry trace,
// then prints a census of the event stream and the final convergence
// state — the sanity check behind `make trace`.
func runCheckTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ParseTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := telemetry.ValidateTrace(events); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	census := map[string]int{}
	var lastOuter *telemetry.TraceEvent
	for i := range events {
		ev := &events[i]
		census[ev.Scope+"."+ev.Name]++
		if ev.Scope == "alm" && ev.Name == "outer" {
			lastOuter = ev
		}
	}
	fmt.Printf("%s: %d events, schema ok\n", path, len(events))
	kinds := make([]string, 0, len(census))
	for k := range census {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, census[k])
	}
	if lastOuter != nil {
		merit, _ := lastOuter.Get("merit")
		kkt, _ := lastOuter.Get("kkt")
		viol, _ := lastOuter.Get("viol")
		iter, _ := lastOuter.Get("iter")
		fmt.Printf("final alm.outer: iter=%g merit=%g kkt=%g viol=%g\n", iter, merit, kkt, viol)
	}
	return nil
}
