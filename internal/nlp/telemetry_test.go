package nlp

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// These tests pin the telemetry layer's two contracts on the solver
// hot paths: a disabled recorder (nil or Noop) adds zero allocations
// per evaluation, and an enabled trace is byte-identical from run to
// run.

// noopTestState mirrors newTestState but threads the Noop recorder, so
// the allocation tests cover both disabled configurations.
func noopTestState(p *Problem) *almState {
	st := newALMState(p, 37.5, telemetry.Noop)
	for i := range st.lamEq {
		st.lamEq[i] = 0.3 * float64(i%5)
	}
	for i := range st.lamIneq {
		st.lamIneq[i] = 0.2 * float64(i%3)
	}
	return st
}

func disabledRecorders(p *Problem) map[string]*almState {
	return map[string]*almState{
		"nil":  newTestState(p),
		"noop": noopTestState(p),
	}
}

func TestMeritZeroAllocsWhenDisabled(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	x := testPoint(n, 0.7)
	for name, st := range disabledRecorders(p) {
		grad := make([]float64, n)
		st.merit(x, grad) // warm up scratch
		allocs := testing.AllocsPerRun(20, func() {
			st.merit(x, grad)
		})
		if allocs != 0 {
			t.Errorf("recorder=%s: merit allocates %g per run, want 0", name, allocs)
		}
	}
}

func TestHessVecZeroAllocsWhenDisabled(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	x := testPoint(n, 1.9)
	v := testPoint(n, 0.2)
	opt := Options{Method: NewtonCG}.withDefaults()
	for name, st := range disabledRecorders(p) {
		ns := newNewtonSolver(p, st, opt)
		for i := range ns.free {
			ns.free[i] = true
		}
		out := make([]float64, n)
		ns.buildCache(x)
		ns.hessVec(v, out) // warm up
		cacheAllocs := testing.AllocsPerRun(20, func() {
			ns.buildCache(x)
		})
		hvAllocs := testing.AllocsPerRun(20, func() {
			ns.hessVec(v, out)
		})
		if cacheAllocs != 0 {
			t.Errorf("recorder=%s: buildCache allocates %g per run, want 0", name, cacheAllocs)
		}
		if hvAllocs != 0 {
			t.Errorf("recorder=%s: hessVec allocates %g per run, want 0", name, hvAllocs)
		}
	}
}

// solveTrace runs a full ALM solve with a trace attached and returns
// the trace bytes.
func solveTrace(t *testing.T, p *Problem, n int, method Method) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewTraceWriter(&buf)
	x0 := testPoint(n, 0.4)
	if _, err := Solve(p, x0, Options{
		Method:   method,
		MaxInner: 200,
		Recorder: w,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSolveTraceDeterministic is the acceptance criterion of the
// telemetry layer: the JSONL trace of a solve is byte-identical from
// run to run, and its alm.outer events carry the convergence fields.
func TestSolveTraceDeterministic(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	for _, method := range []Method{LBFGS, NewtonCG} {
		first := solveTrace(t, p, n, method)
		second := solveTrace(t, p, n, method)
		if !bytes.Equal(first, second) {
			t.Errorf("%v: trace differs between two runs of the same solve:\nfirst:\n%s\nsecond:\n%s",
				method, first, second)
			continue
		}

		events, err := telemetry.ParseTrace(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if err := telemetry.ValidateTrace(events); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		outer, inner, done := 0, 0, 0
		for i := range events {
			ev := &events[i]
			switch ev.Scope + "." + ev.Name {
			case "alm.outer":
				outer++
				if iter, _ := ev.Get("iter"); int(iter) != outer {
					t.Errorf("%v: alm.outer #%d has iter=%g", method, outer, iter)
				}
			case "lbfgs.iter", "newton.iter":
				inner++
			case "alm.done":
				done++
			}
		}
		if outer == 0 || inner == 0 || done != 1 {
			t.Errorf("%v: trace has %d alm.outer, %d inner, %d alm.done events",
				method, outer, inner, done)
		}
	}
}

// TestSolveResultTiming checks the satellite Result timing fields: a
// solve must report a positive total duration that contains the inner
// time.
func TestSolveResultTiming(t *testing.T) {
	const n = 60
	p := chainProblem(n)
	res, err := Solve(p, testPoint(n, 0.4), Options{MaxInner: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", res.Duration)
	}
	if res.SetupTime < 0 || res.InnerTime < 0 {
		t.Errorf("negative phase time: setup %v inner %v", res.SetupTime, res.InnerTime)
	}
	if res.InnerTime > res.Duration {
		t.Errorf("InnerTime %v exceeds total Duration %v", res.InnerTime, res.Duration)
	}
}

// TestEngineCountersPublished checks that a recorded solve publishes
// the engine evaluation counters to the metrics sink.
func TestEngineCountersPublished(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	m := telemetry.NewMetrics()
	if _, err := Solve(p, testPoint(n, 0.4), Options{
		MaxInner: 200, Recorder: m,
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"engine.merit_evals", "engine.grad_evals", "engine.obj_evals"} {
		if m.CounterValue(c) == 0 {
			t.Errorf("counter %s = 0 after a recorded solve", c)
		}
	}
	if m.GaugeValue("engine.elements") == 0 {
		t.Error("gauge engine.elements = 0 after a recorded solve")
	}
	if nSolve, _ := m.SpanValue("nlp.solve"); nSolve != 1 {
		t.Errorf("span nlp.solve count = %d, want 1", nSolve)
	}
}
