// Package nlp implements a large-scale nonlinear programming solver in
// the algorithm family of LANCELOT (Conn, Gould & Toint), the package
// the paper uses to solve its gate-sizing formulations: an augmented
// Lagrangian outer loop over bound-constrained inner minimizations,
// with problems expressed in group-partially-separable form — the
// objective and every constraint are sums of small *element functions*
// that each touch only a few variables, so gradients and Hessians stay
// sparse at any scale.
//
// Two inner solvers are provided: a projected limited-memory BFGS
// method (robust default, first derivatives only) and a truncated
// Newton conjugate-gradient method using exact element Hessians (the
// LANCELOT-style second-order path the paper's analytical derivatives
// enable). Go has no established nonlinear-optimization ecosystem, so
// this package is a first-class substrate of the reproduction.
package nlp

import (
	"errors"
	"fmt"
	"math"
)

// Element is a function of a small subset of the problem variables.
// Eval, Grad and Hess all receive the *local* variable vector x with
// x[k] holding the value of problem variable Vars[k].
//
// When the solver runs with Options.Workers permitting parallelism,
// callbacks of *distinct* elements may be invoked concurrently, so
// they must not share mutable state (pure closures over immutable
// captures are ideal; a private scratch buffer per element is fine).
// One element's own callbacks are never run concurrently with each
// other.
type Element struct {
	// Vars lists the problem-variable indices the element touches.
	Vars []int
	// Eval returns the element value at the local point.
	Eval func(x []float64) float64
	// Grad writes the local gradient into g (len(g) == len(Vars)).
	Grad func(x []float64, g []float64)
	// Hess, if non-nil, writes the local dense Hessian into h
	// (row-major, len(Vars) x len(Vars), symmetric). Elements without
	// Hess restrict the solver to first-order inner methods.
	Hess func(x []float64, h [][]float64)
}

// Constraint is a named scalar constraint built from one element.
// Equality constraints require c(x) = 0; inequality constraints
// require c(x) <= 0.
type Constraint struct {
	Name string
	El   Element
}

// Problem is a nonlinear program
//
//	minimize    sum of objective elements
//	subject to  c_eq(x)  = 0
//	            c_ineq(x) <= 0
//	            Lower <= x <= Upper
type Problem struct {
	N         int
	Lower     []float64 // nil means -inf everywhere
	Upper     []float64 // nil means +inf everywhere
	Objective []Element
	EqCons    []Constraint
	IneqCons  []Constraint
}

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("nlp: problem has %d variables", p.N)
	}
	if p.Lower != nil && len(p.Lower) != p.N {
		return fmt.Errorf("nlp: lower bounds have length %d, want %d", len(p.Lower), p.N)
	}
	if p.Upper != nil && len(p.Upper) != p.N {
		return fmt.Errorf("nlp: upper bounds have length %d, want %d", len(p.Upper), p.N)
	}
	// ±Inf means unbounded, but a NaN bound fails every comparison and
	// would silently drop the box.
	for _, b := range [][]float64{p.Lower, p.Upper} {
		for i, v := range b {
			if math.IsNaN(v) {
				return fmt.Errorf("nlp: bound of variable %d is NaN", i)
			}
		}
	}
	if p.Lower != nil && p.Upper != nil {
		for i := range p.Lower {
			if p.Lower[i] > p.Upper[i] {
				return fmt.Errorf("nlp: bounds cross at variable %d: [%v, %v]",
					i, p.Lower[i], p.Upper[i])
			}
		}
	}
	if len(p.Objective) == 0 {
		return errors.New("nlp: problem has no objective elements")
	}
	check := func(what string, k int, el Element) error {
		if el.Eval == nil || el.Grad == nil {
			return fmt.Errorf("nlp: %s %d lacks Eval or Grad", what, k)
		}
		if len(el.Vars) == 0 {
			return fmt.Errorf("nlp: %s %d touches no variables", what, k)
		}
		for _, v := range el.Vars {
			if v < 0 || v >= p.N {
				return fmt.Errorf("nlp: %s %d references variable %d out of range", what, k, v)
			}
		}
		return nil
	}
	for k, el := range p.Objective {
		if err := check("objective element", k, el); err != nil {
			return err
		}
	}
	for k, c := range p.EqCons {
		if err := check("equality constraint", k, c.El); err != nil {
			return err
		}
	}
	for k, c := range p.IneqCons {
		if err := check("inequality constraint", k, c.El); err != nil {
			return err
		}
	}
	return nil
}

// HasHessians reports whether every element supplies a Hessian, the
// precondition for the Newton inner solver.
func (p *Problem) HasHessians() bool {
	for _, el := range p.Objective {
		if el.Hess == nil {
			return false
		}
	}
	for _, c := range p.EqCons {
		if c.El.Hess == nil {
			return false
		}
	}
	for _, c := range p.IneqCons {
		if c.El.Hess == nil {
			return false
		}
	}
	return true
}

// lower/upper return effective bounds, treating nil as unbounded.
func (p *Problem) lower(i int) float64 {
	if p.Lower == nil {
		return math.Inf(-1)
	}
	return p.Lower[i]
}

func (p *Problem) upper(i int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[i]
}

// project clips x into the bound box in place.
func (p *Problem) project(x []float64) {
	for i := range x {
		if lo := p.lower(i); x[i] < lo {
			x[i] = lo
		}
		if hi := p.upper(i); x[i] > hi {
			x[i] = hi
		}
	}
}

// LinearElement returns an element computing sum_k coeffs[k] *
// x[vars[k]] + constant, with exact (constant) derivatives.
func LinearElement(vars []int, coeffs []float64, constant float64) Element {
	if len(vars) != len(coeffs) {
		panic("nlp: LinearElement vars/coeffs length mismatch")
	}
	c := append([]float64(nil), coeffs...)
	return Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			s := constant
			for k := range c {
				s += c[k] * x[k]
			}
			return s
		},
		Grad: func(_ []float64, g []float64) {
			copy(g, c)
		},
		Hess: func(_ []float64, h [][]float64) {
			for i := range c {
				for j := range c {
					h[i][j] = 0
				}
			}
		},
	}
}

// SquareElement returns an element computing 0.5 * w * x[v]^2.
func SquareElement(v int, w float64) Element {
	return Element{
		Vars: []int{v},
		Eval: func(x []float64) float64 { return 0.5 * w * x[0] * x[0] },
		Grad: func(x []float64, g []float64) { g[0] = w * x[0] },
		Hess: func(_ []float64, h [][]float64) { h[0][0] = w },
	}
}
