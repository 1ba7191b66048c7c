package nlp

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// chainProblem builds a constrained, fully separable test problem with
// enough elements to clear the engine's parallel threshold: n quartic
// objective elements, a coupling term per adjacent pair, an equality
// constraint per stride of 5 and an inequality per stride of 7. Every
// element has an exact Hessian, so both inner methods run on it.
func chainProblem(n int) *Problem {
	p := &Problem{N: n}
	for i := 0; i < n; i++ {
		i := i
		c := 1 + 0.5*math.Sin(float64(i))
		p.Objective = append(p.Objective, Element{
			Vars: []int{i},
			Eval: func(x []float64) float64 {
				d := x[0] - c
				return d*d + 0.1*d*d*d*d
			},
			Grad: func(x []float64, g []float64) {
				d := x[0] - c
				g[0] = 2*d + 0.4*d*d*d
			},
			Hess: func(x []float64, h [][]float64) {
				d := x[0] - c
				h[0][0] = 2 + 1.2*d*d
			},
		})
	}
	for i := 0; i+1 < n; i += 3 {
		i := i
		p.Objective = append(p.Objective, Element{
			Vars: []int{i, i + 1},
			Eval: func(x []float64) float64 {
				d := x[1] - x[0]*x[0]
				return 0.5 * d * d
			},
			Grad: func(x []float64, g []float64) {
				d := x[1] - x[0]*x[0]
				g[0] = -2 * d * x[0]
				g[1] = d
			},
			Hess: func(x []float64, h [][]float64) {
				d := x[1] - x[0]*x[0]
				h[0][0] = 4*x[0]*x[0] - 2*d
				h[0][1], h[1][0] = -2*x[0], -2*x[0]
				h[1][1] = 1
			},
		})
	}
	for i := 0; i+1 < n; i += 5 {
		p.EqCons = append(p.EqCons, Constraint{
			Name: "sum",
			El:   LinearElement([]int{i, i + 1}, []float64{1, 1}, -2),
		})
	}
	for i := 0; i < n; i += 7 {
		p.IneqCons = append(p.IneqCons, Constraint{
			Name: "cap",
			El:   LinearElement([]int{i}, []float64{1}, -1.5),
		})
	}
	return p
}

// testPoint fills x with a deterministic, non-symmetric pattern.
func testPoint(n int, phase float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + 0.8*math.Sin(1.7*float64(i)+phase)
	}
	return x
}

// newTestState builds an almState with non-trivial multipliers so the
// merit fold exercises every weight path.
func newTestState(p *Problem, workers int) *almState {
	st := newALMState(p, 37.5, workers, nil)
	for i := range st.lamEq {
		st.lamEq[i] = 0.3 * float64(i%5)
	}
	for i := range st.lamIneq {
		st.lamIneq[i] = 0.2 * float64(i%3)
	}
	return st
}

func TestEngineParallelThresholdMet(t *testing.T) {
	// The equivalence and allocation tests below are only meaningful if
	// the test problem actually engages the parallel path.
	p := chainProblem(300)
	st := newTestState(p, 4)
	defer st.eng.close()
	if len(st.eng.refs) < engineMinElements {
		t.Fatalf("chain problem has %d elements, below the parallel threshold %d",
			len(st.eng.refs), engineMinElements)
	}
	if st.eng.chunks == nil {
		t.Fatal("engine did not build a worker pool")
	}
}

func TestMeritWorkersBitIdentical(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	ref := newTestState(p, 1)
	defer ref.eng.close()
	for _, w := range []int{2, 3, 8, runtime.NumCPU()} {
		st := newTestState(p, w)
		for _, phase := range []float64{0, 0.9, 2.3} {
			x := testPoint(n, phase)
			gWant := make([]float64, n)
			gGot := make([]float64, n)
			want := ref.merit(x, gWant)
			got := st.merit(x, gGot)
			if want != got {
				t.Errorf("workers=%d phase=%g: merit %v != serial %v", w, phase, got, want)
			}
			for i := range gWant {
				if gWant[i] != gGot[i] {
					t.Fatalf("workers=%d phase=%g: grad[%d] = %v != serial %v",
						w, phase, i, gGot[i], gWant[i])
				}
			}
			for i := range ref.cEq {
				if ref.cEq[i] != st.cEq[i] {
					t.Fatalf("workers=%d: cEq[%d] differs", w, i)
				}
			}
			for i := range ref.cIneq {
				if ref.cIneq[i] != st.cIneq[i] {
					t.Fatalf("workers=%d: cIneq[%d] differs", w, i)
				}
			}
			// Value-only path must agree with the gradient path.
			if only := st.merit(x, nil); only != want {
				t.Errorf("workers=%d: value-only merit %v != %v", w, only, want)
			}
		}
		st.eng.close()
	}
}

func TestHessVecWorkersBitIdentical(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	x := testPoint(n, 1.1)
	v := testPoint(n, 2.6)
	opt := Options{Method: NewtonCG}.withDefaults()

	build := func(workers int) (*newtonSolver, []float64) {
		st := newTestState(p, workers)
		ns := newNewtonSolver(p, st, opt)
		for i := range ns.free {
			ns.free[i] = i%6 != 0
		}
		ns.buildCache(x)
		out := make([]float64, n)
		ns.hessVec(v, out)
		return ns, out
	}

	nsRef, want := build(1)
	defer nsRef.st.eng.close()
	for _, w := range []int{2, 3, 8, runtime.NumCPU()} {
		ns, got := build(w)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: (H v)[%d] = %v != serial %v", w, i, got[i], want[i])
			}
		}
		ns.st.eng.close()
	}
}

func TestSolveWorkersBitIdentical(t *testing.T) {
	const n = 240
	p := chainProblem(n)
	x0 := testPoint(n, 0.4)
	for _, m := range methods {
		var ref *Result
		for _, w := range []int{1, 2, 3, runtime.NumCPU()} {
			r, err := Solve(p, append([]float64(nil), x0...),
				Options{Method: m, Workers: w, MaxInner: 300})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, w, err)
			}
			if w == 1 {
				ref = r
				continue
			}
			if r.F != ref.F || r.Status != ref.Status ||
				r.Outer != ref.Outer || r.Inner != ref.Inner ||
				r.FuncEvals != ref.FuncEvals || r.ObjEvals != ref.ObjEvals ||
				r.ProjGradNorm != ref.ProjGradNorm || r.MaxViolation != ref.MaxViolation {
				t.Fatalf("%v workers=%d: result header differs from serial:\n got %+v\nwant %+v",
					m, w, r, ref)
			}
			for i := range ref.X {
				if r.X[i] != ref.X[i] {
					t.Fatalf("%v workers=%d: X[%d] = %v != serial %v", m, w, i, r.X[i], ref.X[i])
				}
			}
			for i := range ref.LambdaEq {
				if r.LambdaEq[i] != ref.LambdaEq[i] {
					t.Fatalf("%v workers=%d: LambdaEq[%d] differs", m, w, i)
				}
			}
			for i := range ref.LambdaIneq {
				if r.LambdaIneq[i] != ref.LambdaIneq[i] {
					t.Fatalf("%v workers=%d: LambdaIneq[%d] differs", m, w, i)
				}
			}
		}
	}
}

// The allocation regression tests pin the arena contract: after
// warm-up, steady-state merit, Hessian-cache and Hessian-vector
// evaluation must not touch the heap, serial or parallel.

func TestMeritSteadyStateAllocs(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	for _, w := range []int{1, 4} {
		st := newTestState(p, w)
		x := testPoint(n, 0.7)
		grad := make([]float64, n)
		for i := 0; i < 3; i++ { // warm up goroutine stacks
			st.merit(x, grad)
		}
		if a := testing.AllocsPerRun(50, func() { st.merit(x, grad) }); a != 0 {
			t.Errorf("workers=%d: merit(x, grad) allocates %v/op, want 0", w, a)
		}
		if a := testing.AllocsPerRun(50, func() { st.merit(x, nil) }); a != 0 {
			t.Errorf("workers=%d: merit(x, nil) allocates %v/op, want 0", w, a)
		}
		if a := testing.AllocsPerRun(50, func() { st.objective(x) }); a != 0 {
			t.Errorf("workers=%d: objective(x) allocates %v/op, want 0", w, a)
		}
		st.eng.close()
	}
}

func TestHessVecSteadyStateAllocs(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	opt := Options{Method: NewtonCG}.withDefaults()
	for _, w := range []int{1, 4} {
		st := newTestState(p, w)
		ns := newNewtonSolver(p, st, opt)
		x := testPoint(n, 1.9)
		v := testPoint(n, 0.2)
		out := make([]float64, n)
		for i := range ns.free {
			ns.free[i] = true
		}
		ns.buildCache(x)
		ns.hessVec(v, out)
		if a := testing.AllocsPerRun(50, func() { ns.buildCache(x) }); a != 0 {
			t.Errorf("workers=%d: buildCache allocates %v/op, want 0", w, a)
		}
		if a := testing.AllocsPerRun(50, func() { ns.hessVec(v, out) }); a != 0 {
			t.Errorf("workers=%d: hessVec allocates %v/op, want 0", w, a)
		}
		st.eng.close()
	}
}

func TestEnginePoolShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	p := chainProblem(300)
	x0 := testPoint(300, 0.4)
	if _, err := Solve(p, x0, Options{Workers: 4, MaxInner: 50}); err != nil {
		t.Fatal(err)
	}
	// The pool goroutines exit asynchronously after the channel close.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before Solve, %d after", before, runtime.NumGoroutine())
}

func TestObjEvalsCounted(t *testing.T) {
	p := chainProblem(40)
	r, err := Solve(p, testPoint(40, 0.3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ObjEvals < 1 {
		t.Errorf("ObjEvals = %d, want >= 1 (the final F report)", r.ObjEvals)
	}
	if r.FuncEvals <= r.Outer {
		t.Errorf("FuncEvals = %d suspiciously low for %d outer iterations", r.FuncEvals, r.Outer)
	}
}

// TestHessianSlabReservedForNewtonOnly pins that the dense Hessian
// blocks are allocated only for the Newton inner solver: a first-order
// solve over a linear element spanning every variable must not carry
// an n*n slab it never reads.
func TestHessianSlabReservedForNewtonOnly(t *testing.T) {
	const n = 200
	p := chainProblem(n)
	all := make([]int, n)
	ones := make([]float64, n)
	for i := range all {
		all[i], ones[i] = i, 1
	}
	p.Objective = append(p.Objective, LinearElement(all, ones, 0))
	opt := Options{}.withDefaults()
	st := newTestState(p, 1)
	defer st.eng.close()
	newLBFGSSolver(p, st, opt)
	newPGSolver(p, st, opt)
	if st.eng.slabH != nil {
		t.Fatalf("first-order solvers reserved a %d-float Hessian slab", len(st.eng.slabH))
	}
	ns := newNewtonSolver(p, st, opt)
	want := 0
	for _, r := range st.eng.refs {
		want += r.n * r.n
	}
	if len(st.eng.slabH) != want {
		t.Fatalf("Newton solver reserved %d floats, want %d", len(st.eng.slabH), want)
	}
	for _, r := range st.eng.refs {
		if len(r.rows) != r.n || &r.rows[0][0] != &st.eng.slabH[r.hOff] {
			t.Fatalf("element rows do not alias the slab at offset %d", r.hOff)
		}
	}
	ns.buildCache(testPoint(n, 0.4))
}
