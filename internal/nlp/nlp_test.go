package nlp

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

var methods = []Method{LBFGS, NewtonCG}

// quadratic returns 0.5*sum w_i (x_i - c_i)^2 as a Problem.
func quadratic(w, c []float64) *Problem {
	n := len(w)
	els := make([]Element, n)
	for i := range els {
		i := i
		els[i] = Element{
			Vars: []int{i},
			Eval: func(x []float64) float64 { d := x[0] - c[i]; return 0.5 * w[i] * d * d },
			Grad: func(x []float64, g []float64) { g[0] = w[i] * (x[0] - c[i]) },
			Hess: func(_ []float64, h [][]float64) { h[0][0] = w[i] },
		}
	}
	return &Problem{N: n, Objective: els}
}

// rosenbrock builds the classic banana function as two elements per
// coordinate pair (fully separable groups, LANCELOT style).
func rosenbrock(n int) *Problem {
	var els []Element
	for i := 0; i+1 < n; i++ {
		i := i
		els = append(els, Element{
			Vars: []int{i, i + 1},
			Eval: func(x []float64) float64 {
				a := x[1] - x[0]*x[0]
				b := 1 - x[0]
				return 100*a*a + b*b
			},
			Grad: func(x []float64, g []float64) {
				a := x[1] - x[0]*x[0]
				g[0] = -400*a*x[0] - 2*(1-x[0])
				g[1] = 200 * a
			},
			Hess: func(x []float64, h [][]float64) {
				h[0][0] = -400*(x[1]-3*x[0]*x[0]) + 2
				h[0][1] = -400 * x[0]
				h[1][0] = -400 * x[0]
				h[1][1] = 200
			},
		})
	}
	return &Problem{N: n, Objective: els}
}

func TestValidate(t *testing.T) {
	good := quadratic([]float64{1}, []float64{0})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		{N: 0},
		{N: 1},
		{N: 1, Objective: []Element{{Vars: []int{0}}}},                             // no Eval/Grad
		{N: 1, Objective: []Element{{Vars: []int{5}, Eval: dummyF, Grad: dummyG}}}, // var out of range
		{N: 1, Objective: []Element{{Vars: nil, Eval: dummyF, Grad: dummyG}}},      // no vars
		{N: 2, Lower: []float64{0}, Objective: []Element{{Vars: []int{0}, Eval: dummyF, Grad: dummyG}}},
		{N: 1, Lower: []float64{1}, Upper: []float64{0},
			Objective: []Element{{Vars: []int{0}, Eval: dummyF, Grad: dummyG}}},
		{N: 1, Lower: []float64{1}, Upper: []float64{math.NaN()}, // NaN bound
			Objective: []Element{{Vars: []int{0}, Eval: dummyF, Grad: dummyG}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func dummyF([]float64) float64    { return 0 }
func dummyG([]float64, []float64) {}

func TestSolveRejectsBadX0(t *testing.T) {
	p := quadratic([]float64{1}, []float64{0})
	if _, err := Solve(p, []float64{1, 2}, Options{}); err == nil {
		t.Error("wrong x0 length accepted")
	}
}

func TestNewtonRequiresHessians(t *testing.T) {
	p := &Problem{N: 1, Objective: []Element{{
		Vars: []int{0},
		Eval: func(x []float64) float64 { return x[0] * x[0] },
		Grad: func(x []float64, g []float64) { g[0] = 2 * x[0] },
	}}}
	if _, err := Solve(p, []float64{1}, Options{Method: NewtonCG}); err == nil {
		t.Error("NewtonCG without Hessians accepted")
	}
	// LBFGS is fine.
	if _, err := Solve(p, []float64{1}, Options{Method: LBFGS}); err != nil {
		t.Errorf("LBFGS rejected: %v", err)
	}
}

func TestUnconstrainedQuadratic(t *testing.T) {
	w := []float64{1, 4, 0.5, 10}
	c := []float64{1, -2, 3, 0.5}
	for _, m := range methods {
		p := quadratic(w, c)
		r, err := Solve(p, make([]float64, 4), Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Converged {
			t.Errorf("%v: status %v", m, r.Status)
		}
		for i := range c {
			if !approx(r.X[i], c[i], 1e-5) {
				t.Errorf("%v: x[%d] = %v, want %v", m, i, r.X[i], c[i])
			}
		}
	}
}

func TestRosenbrock(t *testing.T) {
	for _, m := range methods {
		p := rosenbrock(6)
		x0 := make([]float64, 6)
		for i := range x0 {
			x0[i] = -1.2
		}
		r, err := Solve(p, x0, Options{Method: m, MaxInner: 3000})
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.X {
			if !approx(r.X[i], 1, 1e-4) {
				t.Errorf("%v: x[%d] = %v, want 1 (status %v, pg %v)",
					m, i, r.X[i], r.Status, r.ProjGradNorm)
			}
		}
	}
}

func TestBoundedQuadratic(t *testing.T) {
	// Unconstrained minimum at (1, -2, 3, 0.5); box forces some
	// variables onto the bounds.
	w := []float64{1, 4, 0.5, 10}
	c := []float64{1, -2, 3, 0.5}
	lower := []float64{0, 0, 0, 0}
	upper := []float64{2, 2, 2, 2}
	want := []float64{1, 0, 2, 0.5}
	for _, m := range methods {
		p := quadratic(w, c)
		p.Lower = lower
		p.Upper = upper
		r, err := Solve(p, []float64{1, 1, 1, 1}, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !approx(r.X[i], want[i], 1e-5) {
				t.Errorf("%v: x[%d] = %v, want %v", m, i, r.X[i], want[i])
			}
		}
	}
}

func TestX0ProjectedIntoBox(t *testing.T) {
	p := quadratic([]float64{1}, []float64{5})
	p.Lower = []float64{0}
	p.Upper = []float64{2}
	r, err := Solve(p, []float64{-100}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.X[0], 2, 1e-8) {
		t.Errorf("x = %v, want 2", r.X[0])
	}
}

// hs6 is Hock-Schittkowski problem 6:
// min (1-x1)^2 s.t. 10(x2 - x1^2) = 0; solution (1, 1).
func hs6() *Problem {
	return &Problem{
		N: 2,
		Objective: []Element{{
			Vars: []int{0},
			Eval: func(x []float64) float64 { d := 1 - x[0]; return d * d },
			Grad: func(x []float64, g []float64) { g[0] = -2 * (1 - x[0]) },
			Hess: func(_ []float64, h [][]float64) { h[0][0] = 2 },
		}},
		EqCons: []Constraint{{
			Name: "parabola",
			El: Element{
				Vars: []int{0, 1},
				Eval: func(x []float64) float64 { return 10 * (x[1] - x[0]*x[0]) },
				Grad: func(x []float64, g []float64) { g[0] = -20 * x[0]; g[1] = 10 },
				Hess: func(_ []float64, h [][]float64) {
					h[0][0] = -20
					h[0][1], h[1][0], h[1][1] = 0, 0, 0
				},
			},
		}},
	}
}

func TestEqualityConstrainedHS6(t *testing.T) {
	for _, m := range methods {
		r, err := Solve(hs6(), []float64{-1.2, 1}, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if !approx(r.X[0], 1, 1e-4) || !approx(r.X[1], 1, 1e-4) {
			t.Errorf("%v: x = %v, want (1,1); status %v viol %v",
				m, r.X, r.Status, r.MaxViolation)
		}
		if r.MaxViolation > 1e-5 {
			t.Errorf("%v: violation %v", m, r.MaxViolation)
		}
	}
}

func TestInequalityConstrained(t *testing.T) {
	// min x1^2 + x2^2 s.t. x1 + x2 >= 1  -> (0.5, 0.5), lambda = 1.
	for _, m := range methods {
		p := &Problem{
			N: 2,
			Objective: []Element{
				SquareElement(0, 2),
				SquareElement(1, 2),
			},
			IneqCons: []Constraint{{
				Name: "halfplane",
				El:   LinearElement([]int{0, 1}, []float64{-1, -1}, 1),
			}},
		}
		r, err := Solve(p, []float64{-3, 5}, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if !approx(r.X[0], 0.5, 1e-4) || !approx(r.X[1], 0.5, 1e-4) {
			t.Errorf("%v: x = %v, want (0.5, 0.5)", m, r.X)
		}
		if !approx(r.LambdaIneq[0], 1, 1e-3) {
			t.Errorf("%v: multiplier = %v, want 1", m, r.LambdaIneq[0])
		}
	}
}

func TestInactiveInequalityIgnored(t *testing.T) {
	// min (x-1)^2 s.t. x <= 10: constraint inactive, solution x = 1.
	for _, m := range methods {
		p := quadratic([]float64{2}, []float64{1})
		p.IneqCons = []Constraint{{
			Name: "loose",
			El:   LinearElement([]int{0}, []float64{1}, -10),
		}}
		r, err := Solve(p, []float64{5}, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if !approx(r.X[0], 1, 1e-5) {
			t.Errorf("%v: x = %v, want 1", m, r.X[0])
		}
		if !approx(r.LambdaIneq[0], 0, 1e-6) {
			t.Errorf("%v: inactive multiplier = %v", m, r.LambdaIneq[0])
		}
	}
}

// hs71-style: min x1*x4*(x1+x2+x3)+x3
// s.t. x1*x2*x3*x4 >= 25, x1^2+x2^2+x3^2+x4^2 = 40, 1 <= x <= 5.
// Known solution (1, 4.743, 3.8211..., 1.3794...), f* = 17.014.
func hs71() *Problem {
	return &Problem{
		N:     4,
		Lower: []float64{1, 1, 1, 1},
		Upper: []float64{5, 5, 5, 5},
		Objective: []Element{{
			Vars: []int{0, 1, 2, 3},
			Eval: func(x []float64) float64 {
				return x[0]*x[3]*(x[0]+x[1]+x[2]) + x[2]
			},
			Grad: func(x []float64, g []float64) {
				g[0] = x[3]*(x[0]+x[1]+x[2]) + x[0]*x[3]
				g[1] = x[0] * x[3]
				g[2] = x[0]*x[3] + 1
				g[3] = x[0] * (x[0] + x[1] + x[2])
			},
			Hess: func(x []float64, h [][]float64) {
				for i := range h {
					for j := range h[i] {
						h[i][j] = 0
					}
				}
				h[0][0] = 2 * x[3]
				h[0][1], h[1][0] = x[3], x[3]
				h[0][2], h[2][0] = x[3], x[3]
				h[0][3], h[3][0] = 2*x[0]+x[1]+x[2], 2*x[0]+x[1]+x[2]
				h[1][3], h[3][1] = x[0], x[0]
				h[2][3], h[3][2] = x[0], x[0]
			},
		}},
		IneqCons: []Constraint{{
			Name: "product",
			El: Element{
				Vars: []int{0, 1, 2, 3},
				Eval: func(x []float64) float64 { return 25 - x[0]*x[1]*x[2]*x[3] },
				Grad: func(x []float64, g []float64) {
					g[0] = -x[1] * x[2] * x[3]
					g[1] = -x[0] * x[2] * x[3]
					g[2] = -x[0] * x[1] * x[3]
					g[3] = -x[0] * x[1] * x[2]
				},
				Hess: func(x []float64, h [][]float64) {
					for i := range h {
						for j := range h[i] {
							h[i][j] = 0
						}
					}
					h[0][1], h[1][0] = -x[2]*x[3], -x[2]*x[3]
					h[0][2], h[2][0] = -x[1]*x[3], -x[1]*x[3]
					h[0][3], h[3][0] = -x[1]*x[2], -x[1]*x[2]
					h[1][2], h[2][1] = -x[0]*x[3], -x[0]*x[3]
					h[1][3], h[3][1] = -x[0]*x[2], -x[0]*x[2]
					h[2][3], h[3][2] = -x[0]*x[1], -x[0]*x[1]
				},
			},
		}},
		EqCons: []Constraint{{
			Name: "sphere",
			El: Element{
				Vars: []int{0, 1, 2, 3},
				Eval: func(x []float64) float64 {
					return x[0]*x[0] + x[1]*x[1] + x[2]*x[2] + x[3]*x[3] - 40
				},
				Grad: func(x []float64, g []float64) {
					for i := range g {
						g[i] = 2 * x[i]
					}
				},
				Hess: func(_ []float64, h [][]float64) {
					for i := range h {
						for j := range h[i] {
							h[i][j] = 0
						}
						h[i][i] = 2
					}
				},
			},
		}},
	}
}

func TestHS71(t *testing.T) {
	want := []float64{1, 4.7429994, 3.8211503, 1.3794082}
	for _, m := range methods {
		r, err := Solve(hs71(), []float64{1, 5, 5, 1}, Options{Method: m, MaxInner: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !approx(r.F, 17.0140173, 1e-3) {
			t.Errorf("%v: f = %v, want 17.014 (status %v)", m, r.F, r.Status)
		}
		for i := range want {
			if !approx(r.X[i], want[i], 1e-2) {
				t.Errorf("%v: x[%d] = %v, want %v", m, i, r.X[i], want[i])
			}
		}
		if r.MaxViolation > 1e-5 {
			t.Errorf("%v: violation %v", m, r.MaxViolation)
		}
	}
}

func TestLargeSeparableProblem(t *testing.T) {
	// 2000 variables, separable quartic with a coupling equality
	// constraint sum x_i = n/2; solvable quickly by both methods.
	const n = 2000
	els := make([]Element, n)
	for i := range els {
		els[i] = Element{
			Vars: []int{i},
			Eval: func(x []float64) float64 {
				d := x[0] - 1
				return d*d + 0.1*d*d*d*d
			},
			Grad: func(x []float64, g []float64) {
				d := x[0] - 1
				g[0] = 2*d + 0.4*d*d*d
			},
			Hess: func(x []float64, h [][]float64) {
				d := x[0] - 1
				h[0][0] = 2 + 1.2*d*d
			},
		}
	}
	vars := make([]int, n)
	coeffs := make([]float64, n)
	for i := range vars {
		vars[i] = i
		coeffs[i] = 1
	}
	p := &Problem{
		N:         n,
		Objective: els,
		EqCons:    []Constraint{{Name: "sum", El: LinearElement(vars, coeffs, -n/2.0)}},
	}
	for _, m := range methods {
		x0 := make([]float64, n)
		r, err := Solve(p, x0, Options{Method: m, MaxInner: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxViolation > 1e-5 {
			t.Errorf("%v: violation %v", m, r.MaxViolation)
		}
		// By symmetry every x_i is n/2 / n = 0.5.
		for i := 0; i < n; i += 197 {
			if !approx(r.X[i], 0.5, 1e-3) {
				t.Errorf("%v: x[%d] = %v, want 0.5", m, i, r.X[i])
			}
		}
	}
}

func TestMaximizeViaNegation(t *testing.T) {
	// max -(x-3)^2 as min (x-3)^2 with an equality pinning context:
	// sanity that Stalled/Converged statuses behave and F reports the
	// raw objective.
	p := quadratic([]float64{2}, []float64{3})
	r, err := Solve(p, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.F, 0, 1e-8) {
		t.Errorf("F = %v", r.F)
	}
}

func TestLinearElement(t *testing.T) {
	el := LinearElement([]int{0, 3}, []float64{2, -1}, 5)
	x := []float64{1.5, 7}
	if got := el.Eval(x); !approx(got, 2*1.5-7+5, 1e-15) {
		t.Errorf("Eval = %v", got)
	}
	g := make([]float64, 2)
	el.Grad(x, g)
	if g[0] != 2 || g[1] != -1 {
		t.Errorf("Grad = %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	LinearElement([]int{0}, []float64{1, 2}, 0)
}

func TestMethodAndStatusStrings(t *testing.T) {
	if LBFGS.String() != "lbfgs" || NewtonCG.String() != "newton-cg" {
		t.Error("method strings")
	}
	if Converged.String() != "converged" || Stalled.String() != "stalled" {
		t.Error("status strings")
	}
	if MaxIterations.String() != "max iterations" {
		t.Error("max iterations string")
	}
}

func TestFuncEvalsCounted(t *testing.T) {
	p := rosenbrock(2)
	r, err := Solve(p, []float64{-1.2, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FuncEvals < 10 {
		t.Errorf("FuncEvals = %d, suspiciously few", r.FuncEvals)
	}
}

func TestEqualityWithBounds(t *testing.T) {
	// min x1 + x2 s.t. x1*x2 = 4, 1 <= x <= 10. Optimum at x1=x2=2.
	for _, m := range methods {
		p := &Problem{
			N:         2,
			Lower:     []float64{1, 1},
			Upper:     []float64{10, 10},
			Objective: []Element{LinearElement([]int{0, 1}, []float64{1, 1}, 0)},
			EqCons: []Constraint{{
				Name: "hyperbola",
				El: Element{
					Vars: []int{0, 1},
					Eval: func(x []float64) float64 { return x[0]*x[1] - 4 },
					Grad: func(x []float64, g []float64) { g[0] = x[1]; g[1] = x[0] },
					Hess: func(_ []float64, h [][]float64) {
						h[0][0], h[1][1] = 0, 0
						h[0][1], h[1][0] = 1, 1
					},
				},
			}},
		}
		r, err := Solve(p, []float64{1, 8}, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if !approx(r.X[0], 2, 1e-3) || !approx(r.X[1], 2, 1e-3) {
			t.Errorf("%v: x = %v, want (2,2)", m, r.X)
		}
	}
}
