package sizing

import (
	"bytes"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/telemetry"
)

// sizeTrace runs one full sizing solve with a JSONL trace attached and
// returns the trace bytes together with the outcome.
func sizeTrace(t *testing.T, spec Spec, workers int) ([]byte, *Outcome) {
	t.Helper()
	m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	var buf bytes.Buffer
	w := telemetry.NewTraceWriter(&buf)
	spec.Workers = workers
	spec.Recorder = w
	out, err := Size(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), out
}

// TestSizeTraceDeterministic is the end-to-end acceptance check of the
// telemetry layer: sizing tree7 under a binding timing constraint
// emits one alm.outer event per outer iteration carrying the merit,
// KKT residual and constraint violation, and the whole JSONL stream is
// byte-identical for serial and parallel runs.
func TestSizeTraceDeterministic(t *testing.T) {
	spec := Spec{
		Objective:   MinArea(),
		Constraints: []Constraint{DelayLE(3, 8)},
		Formulation: Reduced,
		Solver:      nlp.Options{Method: nlp.LBFGS},
	}
	serial, out := sizeTrace(t, spec, 1)
	parallel, _ := sizeTrace(t, spec, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace differs between workers=1 and workers=4:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}

	events, err := telemetry.ParseTrace(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(events); err != nil {
		t.Fatal(err)
	}

	outer := 0
	sawSizing := false
	for i := range events {
		ev := &events[i]
		switch ev.Scope + "." + ev.Name {
		case "alm.outer":
			outer++
			for _, k := range []string{"merit", "kkt", "viol"} {
				if _, ok := ev.Get(k); !ok {
					t.Errorf("alm.outer event %d missing field %q", outer, k)
				}
			}
		case "sizing.result":
			sawSizing = true
		}
	}
	if outer != out.Solver.Outer {
		t.Errorf("trace has %d alm.outer events, solver reports %d outer iterations",
			outer, out.Solver.Outer)
	}
	if outer == 0 {
		t.Error("constraint never bound: no alm.outer events (tighten the deadline)")
	}
	if !sawSizing {
		t.Error("trace has no sizing.result event")
	}
}

// TestGreedyTraceDeterministic pins the greedy baseline's event stream
// across worker counts.
func TestGreedyTraceDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
		var buf bytes.Buffer
		w := telemetry.NewTraceWriter(&buf)
		if _, err := SizeGreedy(m, GreedyOptions{
			K: 3, Deadline: 8, Workers: workers, Recorder: w,
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := run(1), run(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("greedy trace differs between workers=1 and workers=4:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
	events, err := telemetry.ParseTrace(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(events); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Scope != "greedy" || last.Name != "result" {
		t.Errorf("last event is %s.%s, want greedy.result", last.Scope, last.Name)
	}
}

// TestTraceDeterministicWithObservabilityChain is the PR's central
// acceptance check: with the FULL observability chain attached —
// watchdog middleware in front of a trace writer, a metrics sink with
// span trees aggregating, and the solver's scope stacks pushing — the
// JSONL trace stays byte-identical between workers=1 and workers=4.
// Wall-clock data flows only into the metrics sinks; the event stream
// never sees it.
func TestTraceDeterministicWithObservabilityChain(t *testing.T) {
	run := func(workers int) []byte {
		m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
		var buf bytes.Buffer
		w := telemetry.NewTraceWriter(&buf)
		metrics := telemetry.NewMetrics()
		rec := telemetry.NewWatchdog(telemetry.Multi(w, metrics), telemetry.WatchdogOptions{})
		spec := Spec{
			Objective:   MinArea(),
			Constraints: []Constraint{DelayLE(3, 8)},
			Formulation: Reduced,
			Solver:      nlp.Options{Method: nlp.LBFGS},
			Workers:     workers,
			Recorder:    rec,
		}
		if _, err := Size(m, spec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if metrics.SpanTree().Empty() {
			t.Fatal("span tree stayed empty: solver scope stacks not wired")
		}
		return buf.Bytes()
	}
	serial, parallel := run(1), run(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("trace differs between workers=1 and workers=4 with observability chain:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
}

// TestWatchdogSilentOnTree7 pins the no-false-positive side of the
// solve-health watchdog: a healthy converging solve (and the greedy
// baseline) must not raise solve.stalled.
func TestWatchdogSilentOnTree7(t *testing.T) {
	m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	wd := telemetry.NewWatchdog(telemetry.NewMetrics(), telemetry.WatchdogOptions{})
	spec := Spec{
		Objective:   MinArea(),
		Constraints: []Constraint{DelayLE(3, 8)},
		Formulation: Reduced,
		Solver:      nlp.Options{Method: nlp.LBFGS},
		Recorder:    wd,
	}
	if _, err := Size(m, spec); err != nil {
		t.Fatal(err)
	}
	if wd.Stalled() {
		t.Fatalf("watchdog fired on a healthy tree7 solve: %+v", wd.Stalls())
	}

	wd2 := telemetry.NewWatchdog(telemetry.NewMetrics(), telemetry.WatchdogOptions{})
	if _, err := SizeGreedy(m, GreedyOptions{K: 3, Deadline: 8, Recorder: wd2}); err != nil {
		t.Fatal(err)
	}
	if wd2.Stalled() {
		t.Fatalf("watchdog fired on a healthy tree7 greedy run: %+v", wd2.Stalls())
	}
}

// TestReducedSweepCounters: the reduced path keeps recording the sweep
// counters, now as engine work — at most one forward per merit
// evaluation (the engine moves only when the point does) and at most
// one adjoint per gradient evaluation.
func TestReducedSweepCounters(t *testing.T) {
	m := treeModel(t)
	metrics := telemetry.NewMetrics()
	out, err := Size(m, Spec{
		Objective:   MinArea(),
		Constraints: []Constraint{DelayLE(3, 8)},
		Formulation: Reduced,
		Solver:      nlp.Options{Method: nlp.LBFGS},
		Workers:     1,
		Recorder:    metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd := metrics.CounterValue("ssta.forward_sweeps")
	adj := metrics.CounterValue("ssta.adjoint_sweeps")
	grads := metrics.CounterValue("engine.grad_evals")
	if fwd == 0 || adj == 0 {
		t.Fatalf("sweep counters not recorded: forward %d, adjoint %d", fwd, adj)
	}
	if fwd > int64(out.Solver.FuncEvals) {
		t.Errorf("forward sweeps %d exceed merit evaluations %d", fwd, out.Solver.FuncEvals)
	}
	if adj > grads {
		t.Errorf("adjoint sweeps %d exceed gradient evaluations %d", adj, grads)
	}
}
