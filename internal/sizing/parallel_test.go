package sizing

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
)

// genModel builds a deterministic synthetic circuit of the given gate
// count.
func genModel(t testing.TB, gates int) *delay.Model {
	t.Helper()
	c, err := netlist.Generate(netlist.GenSpec{
		Name: "par", Gates: gates, Inputs: 24, Outputs: 6,
		Depth: 12, MaxFanin: 3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return delay.MustBind(netlist.MustCompile(c), delay.Default())
}

// requireIdentical compares two sizing outcomes bit for bit, the
// solve trajectory included.
func requireIdentical(t *testing.T, ref, got *Outcome, label string) {
	t.Helper()
	r, g := ref.Solver, got.Solver
	if g.F != r.F || g.Status != r.Status || g.Outer != r.Outer || g.Inner != r.Inner ||
		g.FuncEvals != r.FuncEvals || g.ObjEvals != r.ObjEvals ||
		g.ProjGradNorm != r.ProjGradNorm || g.MaxViolation != r.MaxViolation {
		t.Fatalf("%s: solver header differs from reference:\n got F=%v %v outer=%d inner=%d evals=%d/%d pg=%v viol=%v\nwant F=%v %v outer=%d inner=%d evals=%d/%d pg=%v viol=%v",
			label,
			g.F, g.Status, g.Outer, g.Inner, g.FuncEvals, g.ObjEvals, g.ProjGradNorm, g.MaxViolation,
			r.F, r.Status, r.Outer, r.Inner, r.FuncEvals, r.ObjEvals, r.ProjGradNorm, r.MaxViolation)
	}
	for i := range r.X {
		if g.X[i] != r.X[i] {
			t.Fatalf("%s: X[%d] = %v != reference %v", label, i, g.X[i], r.X[i])
		}
	}
	for i := range r.LambdaEq {
		if g.LambdaEq[i] != r.LambdaEq[i] {
			t.Fatalf("%s: LambdaEq[%d] = %v != reference %v", label, i, g.LambdaEq[i], r.LambdaEq[i])
		}
	}
	for i := range r.LambdaIneq {
		if g.LambdaIneq[i] != r.LambdaIneq[i] {
			t.Fatalf("%s: LambdaIneq[%d] = %v != reference %v", label, i, g.LambdaIneq[i], r.LambdaIneq[i])
		}
	}
	for i := range ref.S {
		if got.S[i] != ref.S[i] {
			t.Fatalf("%s: S[%d] = %v != reference %v", label, i, got.S[i], ref.S[i])
		}
	}
	if got.MuTmax != ref.MuTmax || got.SigmaTmax != ref.SigmaTmax || got.SumS != ref.SumS {
		t.Fatalf("%s: outcome moments differ: got (%v, %v, %v) want (%v, %v, %v)",
			label, got.MuTmax, got.SigmaTmax, got.SumS, ref.MuTmax, ref.SigmaTmax, ref.SumS)
	}
}

// TestSolveWorkersBitIdentical pins that Spec.Workers, kept as an
// ignored field for callers written against the former worker-count
// option, changes nothing: each formulation/method combination on the
// built-in circuits and a generated netlist solves bit for bit the
// same with the field unset and with Workers: 4.
func TestSolveWorkersBitIdentical(t *testing.T) {
	type circ struct {
		name  string
		model func(t testing.TB) *delay.Model
	}
	circuits := []circ{
		{"tree7", func(t testing.TB) *delay.Model {
			return delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
		}},
		{"fig2", func(t testing.TB) *delay.Model {
			return delay.MustBind(netlist.MustCompile(netlist.Fig2Example()), delay.Default())
		}},
		{"gen300", func(t testing.TB) *delay.Model { return genModel(t, 300) }},
	}
	type combo struct {
		name string
		spec Spec
	}
	// The iteration caps keep the race-detector runs quick; bitwise
	// equivalence holds for truncated trajectories just as well.
	combos := []combo{
		{"full/newton", Spec{
			Objective:   MinMuPlusKSigma(1),
			Formulation: FullSpace,
			Solver:      nlp.Options{Method: nlp.NewtonCG, MaxOuter: 3, MaxInner: 20},
		}},
		{"full/lbfgs", Spec{
			Objective:   MinMuPlusKSigma(1),
			Formulation: FullSpace,
			Solver:      nlp.Options{Method: nlp.LBFGS, MaxOuter: 4, MaxInner: 40},
		}},
		{"reduced/lbfgs", Spec{
			Objective:   MinMuPlusKSigma(1),
			Formulation: Reduced,
			Solver:      nlp.Options{Method: nlp.LBFGS, MaxOuter: 3, MaxInner: 30},
		}},
	}
	for _, c := range circuits {
		for _, cb := range combos {
			t.Run(c.name+"/"+cb.name, func(t *testing.T) {
				if c.name == "gen300" && cb.name == "reduced/lbfgs" && testing.Short() {
					t.Skip("reduced sweep on the generated circuit is slow in -short mode")
				}
				ref, err := Size(c.model(t), cb.spec)
				if err != nil {
					t.Fatal(err)
				}
				spec := cb.spec
				spec.Workers = 4
				out, err := Size(c.model(t), spec)
				if err != nil {
					t.Fatalf("Workers: 4: %v", err)
				}
				requireIdentical(t, ref, out, "Workers: 4")
			})
		}
	}
}
