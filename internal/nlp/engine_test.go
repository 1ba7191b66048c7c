package nlp

import (
	"math"
	"runtime"
	"testing"
)

// chainProblem builds a constrained, fully separable test problem: n
// quartic objective elements, a coupling term per adjacent pair, an equality
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
func newTestState(p *Problem) *almState {
	st := newALMState(p, 37.5, nil)
	for i := range st.lamEq {
		st.lamEq[i] = 0.3 * float64(i%5)
	}
	for i := range st.lamIneq {
		st.lamIneq[i] = 0.2 * float64(i%3)
	}
	return st
}

// The allocation regression tests pin the arena contract: after
// warm-up, steady-state merit, Hessian-cache and Hessian-vector
// evaluation must not touch the heap.

func TestMeritSteadyStateAllocs(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	st := newTestState(p)
	x := testPoint(n, 0.7)
	grad := make([]float64, n)
	for i := 0; i < 3; i++ {
		st.merit(x, grad)
	}
	if a := testing.AllocsPerRun(50, func() { st.merit(x, grad) }); a != 0 {
		t.Errorf("merit(x, grad) allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { st.merit(x, nil) }); a != 0 {
		t.Errorf("merit(x, nil) allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { st.objective(x) }); a != 0 {
		t.Errorf("objective(x) allocates %v/op, want 0", a)
	}
}

func TestHessVecSteadyStateAllocs(t *testing.T) {
	const n = 300
	p := chainProblem(n)
	opt := Options{Method: NewtonCG}.withDefaults()
	st := newTestState(p)
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
		t.Errorf("buildCache allocates %v/op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { ns.hessVec(v, out) }); a != 0 {
		t.Errorf("hessVec allocates %v/op, want 0", a)
	}
}

// TestEnginePoolShutdown pins that a solve leaves no goroutine behind:
// the element engine is serial and owns nothing to shut down.
func TestEnginePoolShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	p := chainProblem(300)
	x0 := testPoint(300, 0.4)
	if _, err := Solve(p, x0, Options{MaxInner: 50}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before Solve, %d after", before, after)
	}
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
	st := newTestState(p)
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
