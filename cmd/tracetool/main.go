// Command tracetool analyzes the deterministic JSONL solver traces
// written by statsize/ssta -trace, and the optional wall-clock span
// sidecars written by -spans.
//
// Usage:
//
//	tracetool -report trace.jsonl             event census, phase attribution, convergence
//	tracetool -flame trace.jsonl              folded stacks (work-unit weights) for flamegraph tools
//	tracetool -flame -spans s.jsonl trace.jsonl   folded stacks weighted by measured self time
//	tracetool -stalls trace.jsonl             offline watchdog replay
//
// The trace carries only worker-count-invariant event data — no wall
// clock — so every figure the report derives from it (iteration
// counts, dirty-gate totals, sample counts, stall verdicts) is
// byte-reproducible across machines and -j values. Wall-clock
// attribution comes only from the -spans sidecar, which the CLIs
// write separately precisely because it is not deterministic.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

func main() {
	var (
		reportFlag = flag.Bool("report", false, "print the event census, phase attribution and convergence report (default mode)")
		flameFlag  = flag.Bool("flame", false, "emit folded stacks (one 'a;b;c weight' line each) for flamegraph.pl / speedscope")
		stallsFlag = flag.Bool("stalls", false, "replay the trace through the solve-health watchdog and report stalls")
		spansFile  = flag.String("spans", "", "span-tree JSONL sidecar (statsize/ssta -spans) for wall-clock attribution")
		patience   = flag.Int("patience", 0, "watchdog patience for -stalls (0 = default)")
		minImprove = flag.Float64("minimprove", 0, "watchdog minimum relative improvement for -stalls (0 = default)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracetool [-report|-flame|-stalls] [-spans file] trace.jsonl")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	events, err := telemetry.ParseTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if err := telemetry.ValidateTrace(events); err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}

	var spans []spanRow
	if *spansFile != "" {
		if spans, err = readSpans(*spansFile); err != nil {
			fatal(err)
		}
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	switch {
	case *flameFlag:
		writeFlame(out, events, spans)
	case *stallsFlag:
		writeStalls(out, events, *patience, *minImprove)
	default:
		_ = *reportFlag // -report is the default mode
		writeReport(out, events, spans)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracetool:", err)
	os.Exit(1)
}

// spanRow is one line of the -spans sidecar (Tree.WriteJSONL).
type spanRow struct {
	Span   string `json:"span"`
	Count  int64  `json:"count"`
	NS     int64  `json:"ns"`
	SelfNS int64  `json:"self_ns"`
}

func readSpans(path string) ([]spanRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []spanRow
	dec := json.NewDecoder(f)
	for line := 1; ; line++ {
		var r spanRow
		if err := dec.Decode(&r); err == io.EOF {
			return rows, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		rows = append(rows, r)
	}
}

// phase is one row of the deterministic phase-attribution table: a
// solver phase with its iteration count and its work-unit total, where
// the work unit is the phase's natural deterministic size measure
// (gates swept, samples drawn, inner iterations run).
type phase struct {
	name  string
	unit  string
	iters int64
	work  int64
}

// attribution folds the event stream into the phase table. Every
// figure comes from event counts and integer-valued fields, so the
// table is identical for every worker count.
func attribution(events []telemetry.TraceEvent) []phase {
	get := func(e *telemetry.TraceEvent, key string) int64 {
		v, _ := e.Get(key)
		return int64(v)
	}
	byKey := map[string]*phase{}
	order := []string{}
	add := func(key, unit string, iters, work int64) {
		p := byKey[key]
		if p == nil {
			p = &phase{name: key, unit: unit}
			byKey[key] = p
			order = append(order, key)
		}
		p.iters += iters
		p.work += work
	}
	for i := range events {
		e := &events[i]
		switch e.Scope + "." + e.Name {
		case "alm.outer":
			add("alm.outer", "inner iters", 1, get(e, "inner"))
		case "lbfgs.iter":
			add("nlp.inner/lbfgs", "iters", 1, 1)
		case "newton.iter":
			add("nlp.inner/newton", "iters", 1, 1)
		case "projgrad.iter":
			add("nlp.inner/projgrad", "iters", 1, 1)
		case "alm.recover":
			add("alm.recover", "recoveries", 1, 1)
		case "inc.update":
			add("inc.update", "dirty gates", 1, get(e, "dirty"))
		case "hier.sweep":
			add("hier.sweep", "nodes", 1, get(e, "nodes"))
		case "greedy.step":
			add("greedy.step", "steps", 1, 1)
		case "mc.result":
			add("mc.run", "samples", 1, get(e, "samples"))
		}
	}
	rows := make([]phase, 0, len(order))
	for _, k := range order {
		rows = append(rows, *byKey[k])
	}
	return rows
}

// writeReport prints the census, phase attribution, convergence table
// and (with a sidecar) the wall-clock span tree.
func writeReport(w io.Writer, events []telemetry.TraceEvent, spans []spanRow) {
	// Census: one row per scope.event kind, in first-seen order.
	type kind struct {
		key string
		n   int
	}
	byKey := map[string]*kind{}
	var kinds []*kind
	for i := range events {
		key := events[i].Scope + "." + events[i].Name
		k := byKey[key]
		if k == nil {
			k = &kind{key: key}
			byKey[key] = k
			kinds = append(kinds, k)
		}
		k.n++
	}
	fmt.Fprintf(w, "trace: %d events, %d kinds\n\n", len(events), len(kinds))
	fmt.Fprintf(w, "census:\n")
	wid := 0
	for _, k := range kinds {
		if len(k.key) > wid {
			wid = len(k.key)
		}
	}
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-*s %8d\n", wid, k.key, k.n)
	}

	// Phase attribution: deterministic work units per solver phase.
	if rows := attribution(events); len(rows) > 0 {
		fmt.Fprintf(w, "\nphase attribution (deterministic work units):\n")
		nw, uw := 0, 0
		for _, p := range rows {
			if len(p.name) > nw {
				nw = len(p.name)
			}
			if len(p.unit) > uw {
				uw = len(p.unit)
			}
		}
		fmt.Fprintf(w, "  %-*s %10s %12s  %s\n", nw, "phase", "events", "work", "unit")
		for _, p := range rows {
			fmt.Fprintf(w, "  %-*s %10d %12d  %s\n", nw, p.name, p.iters, p.work, p.unit)
		}
	}

	writeConvergence(w, events)

	if len(spans) > 0 {
		fmt.Fprintf(w, "\nwall-clock span tree (from sidecar):\n")
		pw := 0
		for _, r := range spans {
			if n := len(r.Span) + 2*strings.Count(r.Span, "/"); n > pw {
				pw = n
			}
		}
		for _, r := range spans {
			depth := strings.Count(r.Span, "/")
			name := r.Span[strings.LastIndexByte(r.Span, '/')+1:]
			ind := strings.Repeat("  ", depth)
			fmt.Fprintf(w, "  %-*s n=%-8d cum=%-12v self=%v\n",
				pw, ind+name, r.Count,
				time.Duration(r.NS).Round(time.Microsecond),
				time.Duration(r.SelfNS).Round(time.Microsecond))
		}
	}
}

// writeConvergence prints the ALM outer-iteration table and the final
// solver verdict, eliding the middle of long runs.
func writeConvergence(w io.Writer, events []telemetry.TraceEvent) {
	var outer []*telemetry.TraceEvent
	var done *telemetry.TraceEvent
	for i := range events {
		e := &events[i]
		if e.Scope == "alm" && e.Name == "outer" {
			outer = append(outer, e)
		}
		if e.Scope == "alm" && e.Name == "done" {
			done = e
		}
	}
	if len(outer) == 0 && done == nil {
		return
	}
	fmt.Fprintf(w, "\nconvergence (alm.outer):\n")
	fmt.Fprintf(w, "  %6s %14s %10s %10s %10s %6s\n", "iter", "merit", "kkt", "viol", "rho", "inner")
	const head, tail = 10, 10
	row := func(e *telemetry.TraceEvent) {
		iter, _ := e.Get("iter")
		merit, _ := e.Get("merit")
		kkt, _ := e.Get("kkt")
		viol, _ := e.Get("viol")
		rho, _ := e.Get("rho")
		inner, _ := e.Get("inner")
		fmt.Fprintf(w, "  %6.0f %14.6g %10.3g %10.3g %10.3g %6.0f\n", iter, merit, kkt, viol, rho, inner)
	}
	if len(outer) <= head+tail+1 {
		for _, e := range outer {
			row(e)
		}
	} else {
		for _, e := range outer[:head] {
			row(e)
		}
		fmt.Fprintf(w, "  %6s (%d iterations elided)\n", "...", len(outer)-head-tail)
		for _, e := range outer[len(outer)-tail:] {
			row(e)
		}
	}
	if done != nil {
		status, _ := done.Get("status")
		f, _ := done.Get("f")
		kkt, _ := done.Get("kkt")
		viol, _ := done.Get("viol")
		no, _ := done.Get("outer")
		ni, _ := done.Get("inner")
		fmt.Fprintf(w, "  done: status=%.0f f=%.8g kkt=%.3g viol=%.3g (%.0f outer, %.0f inner)\n",
			status, f, kkt, viol, no, ni)
	}
}

// writeFlame emits folded stacks. With a sidecar the weight is the
// measured self time in nanoseconds; without one it is the phase's
// deterministic work-unit count, which makes the flamegraph
// reproducible byte for byte across machines and worker counts.
func writeFlame(w io.Writer, events []telemetry.TraceEvent, spans []spanRow) {
	if len(spans) > 0 {
		for _, r := range spans {
			if r.SelfNS > 0 {
				fmt.Fprintf(w, "%s %d\n", strings.ReplaceAll(r.Span, "/", ";"), r.SelfNS)
			}
		}
		return
	}
	get := func(e *telemetry.TraceEvent, key string) int64 {
		v, _ := e.Get(key)
		return int64(v)
	}
	weights := map[string]int64{}
	var order []string
	add := func(stack string, wgt int64) {
		if wgt <= 0 {
			return
		}
		if _, ok := weights[stack]; !ok {
			order = append(order, stack)
		}
		weights[stack] += wgt
	}
	for i := range events {
		e := &events[i]
		switch e.Scope + "." + e.Name {
		case "alm.outer":
			add("nlp.solve;alm.outer", 1)
			add("nlp.solve;alm.outer;nlp.inner", get(e, "inner"))
		case "inc.update":
			add("greedy;inc.update", get(e, "dirty"))
		case "greedy.step":
			add("greedy;greedy.step", 1)
		case "mc.result":
			add("mc.run", get(e, "samples"))
		}
	}
	sort.Strings(order)
	for _, stack := range order {
		fmt.Fprintf(w, "%s %d\n", stack, weights[stack])
	}
}

// writeStalls replays the event stream through the watchdog — the
// offline twin of statsize -watchdog — and reports every stall.
func writeStalls(w io.Writer, events []telemetry.TraceEvent, patience int, minImprove float64) {
	wd := telemetry.NewWatchdog(nil, telemetry.WatchdogOptions{
		Patience:   patience,
		MinImprove: minImprove,
	})
	for i := range events {
		e := &events[i]
		wd.Event(e.Scope, e.Name, e.Fields...)
	}
	stalls := wd.Stalls()
	if len(stalls) == 0 {
		fmt.Fprintln(w, "no stalls detected")
		return
	}
	for _, s := range stalls {
		fmt.Fprintf(w, "stall: %s progress stalled at iteration %d (best %.6g, last %.6g, %d non-improving iterations)\n",
			s.Scope, s.Iter, s.Best, s.Last, s.Streak)
	}
}
