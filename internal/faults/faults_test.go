package faults

import (
	"context"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/nlp"
)

// chain builds a coupled quartic/quadratic test problem in the same
// shape as the nlp package's own fixtures (which an external package
// cannot reach): separable well terms plus coupling terms, all with
// exact local Hessians, and optionally a linear budget inequality that
// is active at the solution so the augmented-Lagrangian outer loop has
// real work to do. Element order — the order faults.Fault.Elem indexes
// — is objective elements first, then the inequality constraint.
func chain(n int, constrained bool) *nlp.Problem {
	p := &nlp.Problem{N: n}
	for i := 0; i < n; i++ {
		c := 1 + 0.5*math.Sin(float64(i))
		p.Objective = append(p.Objective, nlp.Element{
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
		p.Objective = append(p.Objective, nlp.Element{
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
	if constrained {
		vars := make([]int, n)
		coeffs := make([]float64, n)
		for i := range vars {
			vars[i], coeffs[i] = i, 1
		}
		p.IneqCons = []nlp.Constraint{{
			Name: "budget",
			El:   nlp.LinearElement(vars, coeffs, -0.8*float64(n)),
		}}
	}
	return p
}

func point(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.2 + 0.03*float64(i%11)
	}
	return x
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// TestTransientNaNRecoversToCleanObjective is the first acceptance
// criterion: scripted NaN/Inf evaluations — on an objective element and
// on the inequality constraint — must not derail the solve; the faulted
// run converges to the clean-run objective within tolerance.
func TestTransientNaNRecoversToCleanObjective(t *testing.T) {
	const n = 16
	p := chain(n, true)
	opt := nlp.Options{Method: nlp.LBFGS}

	clean, err := nlp.Solve(p, point(n), opt)
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	if clean.Status != nlp.Converged {
		t.Fatalf("clean status = %v, want Converged", clean.Status)
	}

	ineqElem := len(p.Objective) // first (only) inequality element
	script := []Fault{
		{Elem: 0, Call: 6, Kind: EvalNaN},
		{Elem: 0, Call: 11, Kind: EvalNaN},
		{Elem: 2, Call: 9, Kind: EvalInf},
		{Elem: ineqElem, Call: 7, Kind: EvalNaN},
	}
	wrapped, rec := Wrap(p, script, nil)
	res, err := nlp.Solve(wrapped, point(n), opt)
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if rec.Count() == 0 {
		t.Fatal("no scripted fault fired")
	}
	if res.Status != nlp.Converged {
		t.Fatalf("faulted status = %v, want Converged (fired: %v)", res.Status, rec.Fired())
	}
	if diff := math.Abs(res.F - clean.F); diff > 1e-5*(1+math.Abs(clean.F)) {
		t.Fatalf("faulted F = %v, clean F = %v (diff %g)", res.F, clean.F, diff)
	}
	if !allFinite(res.X) {
		t.Fatalf("faulted X not finite: %v", res.X)
	}
}

// TestPersistentNaNExhaustsBudgetThenFails: an element that never again
// evaluates finite must drive the recovery loop (restore + penalty
// relax) through its per-rung budget, step down every ladder rung, and
// only then report NumericalFailure — with a finite iterate, not the
// poisoned one.
func TestPersistentNaNExhaustsBudgetThenFails(t *testing.T) {
	const n = 8
	p := chain(n, true)
	wrapped, rec := Wrap(p, []Fault{{Elem: 0, Call: 4, Kind: EvalNaN, Persist: true}}, nil)

	opt := nlp.Options{Method: nlp.LBFGS, RecoveryBudget: 3}
	res, err := nlp.Solve(wrapped, point(n), opt)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Status != nlp.NumericalFailure {
		t.Fatalf("status = %v, want NumericalFailure", res.Status)
	}
	if !res.Status.Failed() {
		t.Fatal("NumericalFailure must report Failed()")
	}
	if res.Recoveries <= opt.RecoveryBudget {
		t.Fatalf("Recoveries = %d, want > per-rung budget %d", res.Recoveries, opt.RecoveryBudget)
	}
	if res.Method != nlp.ProjGrad {
		t.Fatalf("final method = %v, want ProjGrad (bottom of the LBFGS ladder)", res.Method)
	}
	if !allFinite(res.X) {
		t.Fatalf("X after failure not finite: %v", res.X)
	}
	if rec.Count() == 0 {
		t.Fatal("persistent fault never fired")
	}
}

// TestHessNaNDegradesNewtonToLBFGS is the degradation-ladder
// acceptance criterion: a Newton-CG solve whose Hessian products are
// persistently non-finite cannot take a step; the ladder must swap in
// L-BFGS and still converge to the clean objective.
func TestHessNaNDegradesNewtonToLBFGS(t *testing.T) {
	const n = 12
	p := chain(n, false) // unconstrained: ladder fires on the first stalled inner solve
	opt := nlp.Options{Method: nlp.NewtonCG}

	clean, err := nlp.Solve(p, point(n), opt)
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	if clean.Status != nlp.Converged {
		t.Fatalf("clean status = %v, want Converged", clean.Status)
	}

	wrapped, rec := Wrap(p, []Fault{{Elem: 0, Call: 1, Kind: HessNaN, Persist: true}}, nil)
	res, err := nlp.Solve(wrapped, point(n), opt)
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if rec.Count() == 0 {
		t.Fatal("Hessian fault never fired")
	}
	if res.Method == nlp.NewtonCG {
		t.Fatalf("method stayed NewtonCG; ladder did not degrade (status %v)", res.Status)
	}
	if res.Status != nlp.Converged {
		t.Fatalf("degraded status = %v, want Converged", res.Status)
	}
	if diff := math.Abs(res.F - clean.F); diff > 1e-5*(1+math.Abs(clean.F)) {
		t.Fatalf("degraded F = %v, clean F = %v (diff %g)", res.F, clean.F, diff)
	}
}

// TestGradNaNIsRecoverable: a transient poisoned gradient entry must
// be caught by the non-finite screens (line search or recovery path)
// without corrupting the final iterate.
func TestGradNaNIsRecoverable(t *testing.T) {
	const n = 16
	p := chain(n, true)
	opt := nlp.Options{Method: nlp.LBFGS}

	clean, err := nlp.Solve(p, point(n), opt)
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	wrapped, rec := Wrap(p, []Fault{{Elem: 1, Call: 5, Kind: GradNaN}}, nil)
	res, err := nlp.Solve(wrapped, point(n), opt)
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if rec.Count() != 1 {
		t.Fatalf("fired %d faults, want exactly 1", rec.Count())
	}
	if res.Status != nlp.Converged {
		t.Fatalf("status = %v, want Converged", res.Status)
	}
	if diff := math.Abs(res.F - clean.F); diff > 1e-5*(1+math.Abs(clean.F)) {
		t.Fatalf("F = %v, clean F = %v (diff %g)", res.F, clean.F, diff)
	}
}

// cancelRun drives one scripted-cancellation solve and returns the
// result plus the number of firings.
func cancelRun(t *testing.T, n, call int) (*nlp.Result, int) {
	t.Helper()
	p := chain(n, true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped, rec := Wrap(p, []Fault{{Elem: 0, Call: call, Kind: Cancel}}, cancel)
	res, err := nlp.SolveCtx(ctx, wrapped, point(n), nlp.Options{Method: nlp.LBFGS})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return res, rec.Count()
}

// TestCancelMidSolve is the cancellation acceptance criterion: a kill
// signal scripted at an exact element call must yield Cancelled with a
// finite best-so-far iterate, leak no goroutines, and produce a
// bit-identical trajectory run after run (the fault counter is
// per-element, so the logical cancellation point is deterministic).
func TestCancelMidSolve(t *testing.T) {
	const n = 140
	const call = 30

	base := runtime.NumGoroutine()
	first, fired := cancelRun(t, n, call)
	if fired != 1 {
		t.Fatalf("cancel fault fired %d times, want 1", fired)
	}
	if first.Status != nlp.Cancelled {
		t.Fatalf("status = %v, want Cancelled", first.Status)
	}
	if !first.Status.Failed() {
		t.Fatal("Cancelled must report Failed()")
	}
	if len(first.X) != n || !allFinite(first.X) {
		t.Fatalf("best-so-far X invalid: len %d", len(first.X))
	}

	again, _ := cancelRun(t, n, call)
	if again.Status != nlp.Cancelled {
		t.Fatalf("repeat status = %v, want Cancelled", again.Status)
	}
	if first.Outer != again.Outer || first.Inner != again.Inner || first.FuncEvals != again.FuncEvals {
		t.Fatalf("cancellation point moved between runs: outer/inner/evals %d/%d/%d, then %d/%d/%d",
			first.Outer, first.Inner, first.FuncEvals, again.Outer, again.Inner, again.FuncEvals)
	}
	for i := range first.X {
		if first.X[i] != again.X[i] {
			t.Fatalf("X[%d] differs between runs: %v vs %v", i, first.X[i], again.X[i])
		}
	}

	// The cancelled solves must leave no goroutine behind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled solves: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFiringsDeterministic: the same script on the same problem fires
// the same injections and produces the same solve, run after run — the
// harness's core promise.
func TestFiringsDeterministic(t *testing.T) {
	const n = 16
	script := []Fault{
		{Elem: 0, Call: 6, Kind: EvalNaN},
		{Elem: 3, Call: 4, Kind: EvalInf},
		{Elem: 1, Call: 5, Kind: GradNaN},
	}
	run := func() (*nlp.Result, []Firing) {
		p := chain(n, true)
		wrapped, rec := Wrap(p, script, nil)
		res, err := nlp.Solve(wrapped, point(n), nlp.Options{Method: nlp.LBFGS})
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		fired := rec.Fired()
		sort.Slice(fired, func(i, j int) bool {
			if fired[i].Elem != fired[j].Elem {
				return fired[i].Elem < fired[j].Elem
			}
			if fired[i].Call != fired[j].Call {
				return fired[i].Call < fired[j].Call
			}
			return fired[i].Kind < fired[j].Kind
		})
		return res, fired
	}

	r1, f1 := run()
	r2, f2 := run()
	if len(f1) == 0 {
		t.Fatal("no faults fired")
	}
	if len(f1) != len(f2) {
		t.Fatalf("firing counts differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("firing %d differs: %+v vs %+v", i, f1[i], f2[i])
		}
	}
	if r1.F != r2.F || r1.Outer != r2.Outer || r1.Inner != r2.Inner || r1.FuncEvals != r2.FuncEvals {
		t.Fatalf("repeat run diverged: F %v/%v outer %d/%d inner %d/%d evals %d/%d",
			r1.F, r2.F, r1.Outer, r2.Outer, r1.Inner, r2.Inner, r1.FuncEvals, r2.FuncEvals)
	}
}

// TestWrapLeavesOriginalClean: Wrap must hand back an independent copy;
// the pristine problem keeps solving cleanly after the faulted copy ran.
func TestWrapLeavesOriginalClean(t *testing.T) {
	const n = 8
	p := chain(n, true)
	wrapped, _ := Wrap(p, []Fault{{Elem: 0, Call: 1, Kind: EvalNaN, Persist: true}}, nil)
	if _, err := nlp.Solve(wrapped, point(n), nlp.Options{RecoveryBudget: 1, MaxOuter: 10}); err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	res, err := nlp.Solve(p, point(n), nlp.Options{})
	if err != nil {
		t.Fatalf("original solve: %v", err)
	}
	if res.Status != nlp.Converged {
		t.Fatalf("original problem no longer converges: %v", res.Status)
	}
}
