package sizing

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/ssta"
)

func close(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func treeModel(t *testing.T) *delay.Model {
	t.Helper()
	return delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
}

func fig2Model(t *testing.T) *delay.Model {
	t.Helper()
	return delay.MustBind(netlist.MustCompile(netlist.Fig2Example()), delay.Default())
}

func checkBounds(t *testing.T, m *delay.Model, S []float64) {
	t.Helper()
	for _, id := range m.G.C.GateIDs() {
		if S[id] < 1-1e-6 || S[id] > m.Limit+1e-6 {
			t.Errorf("S[%s] = %v outside [1, %v]", m.G.C.Nodes[id].Name, S[id], m.Limit)
		}
	}
}

func TestMinMuReducedTree(t *testing.T) {
	m := treeModel(t)
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	out, err := Size(m, Spec{Objective: MinMu()})
	if err != nil {
		t.Fatal(err)
	}
	checkBounds(t, m, out.S)
	if out.MuTmax >= unit.Mu {
		t.Errorf("min mu did not improve: %v -> %v", unit.Mu, out.MuTmax)
	}
	// With PaperTree parameters the output load dominates, so every
	// gate should hit the upper limit (the paper's Table 2 reports
	// SumS = 21 for min mu on the 7-gate tree with limit 3).
	if !close(out.SumS, 21, 0.02) {
		t.Errorf("SumS = %v, want ~21 (all gates at limit)", out.SumS)
	}
}

func TestMinAreaUnconstrainedIsUnit(t *testing.T) {
	m := treeModel(t)
	out, err := Size(m, Spec{Objective: MinArea()})
	if err != nil {
		t.Fatal(err)
	}
	if !close(out.SumS, 7, 1e-6) {
		t.Errorf("unconstrained min area SumS = %v, want 7", out.SumS)
	}
}

func TestObjectiveOrderingMuKSigma(t *testing.T) {
	// Paper Table 1 pattern: as k grows in min(mu + k sigma), the
	// mean creeps up, sigma comes down, and area (vs min-mu) shrinks.
	m := treeModel(t)
	var mus, sigmas []float64
	for _, k := range []float64{0, 1, 3} {
		out, err := Size(m, Spec{Objective: MinMuPlusKSigma(k)})
		if err != nil {
			t.Fatal(err)
		}
		checkBounds(t, m, out.S)
		mus = append(mus, out.MuTmax)
		sigmas = append(sigmas, out.SigmaTmax)
	}
	if !(mus[0] <= mus[1]+1e-9 && mus[1] <= mus[2]+1e-9) {
		t.Errorf("means not increasing with k: %v", mus)
	}
	if !(sigmas[0] >= sigmas[1]-1e-9 && sigmas[1] >= sigmas[2]-1e-9) {
		t.Errorf("sigmas not decreasing with k: %v", sigmas)
	}
}

func TestAreaUnderDelayConstraint(t *testing.T) {
	m := treeModel(t)
	// Pick a deadline feasible for every k tested: midway between the
	// best and worst achievable mu + 3*sigma (the tightest metric).
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast3, err := Size(m, Spec{Objective: MinMuPlusKSigma(3)})
	if err != nil {
		t.Fatal(err)
	}
	best := fast3.MuTmax + 3*fast3.SigmaTmax
	worst := unit.Mu + 3*unit.Sigma()
	d := 0.5 * (best + worst)

	var areas []float64
	for _, k := range []float64{0, 1, 3} {
		out, err := Size(m, Spec{Objective: MinArea(), Constraints: []Constraint{DelayLE(k, d)}})
		if err != nil {
			t.Fatal(err)
		}
		checkBounds(t, m, out.S)
		slack := d - out.MuTmax - k*out.SigmaTmax
		if slack < -1e-4 {
			t.Errorf("k=%v: constraint violated by %v", k, -slack)
		}
		areas = append(areas, out.SumS)
	}
	// Paper Table 1: guaranteeing more sigmas of margin costs area.
	if !(areas[0] <= areas[1]+1e-6 && areas[1] <= areas[2]+1e-6) {
		t.Errorf("areas not increasing with k: %v", areas)
	}
	// And all cost more than the unconstrained floor of 7.
	if areas[0] < 7-1e-9 {
		t.Errorf("area below floor: %v", areas[0])
	}
}

func TestSigmaRangeAtFixedMu(t *testing.T) {
	// Paper Table 2: at a fixed mean there is a sigma interval, and
	// min-sigma costs more area than min-area.
	m := treeModel(t)
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast, err := Size(m, Spec{Objective: MinMu()})
	if err != nil {
		t.Fatal(err)
	}
	d := 0.5 * (unit.Mu + fast.MuTmax)

	runs := map[string]*Outcome{}
	for name, obj := range map[string]Objective{
		"area":     MinArea(),
		"minsigma": MinSigma(),
		"maxsigma": MaxSigma(),
	} {
		out, err := Size(m, Spec{Objective: obj, Constraints: []Constraint{MuEQ(d)}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !close(out.MuTmax, d, 1e-3) {
			t.Errorf("%s: mu = %v, want %v", name, out.MuTmax, d)
		}
		checkBounds(t, m, out.S)
		runs[name] = out
	}
	if runs["minsigma"].SigmaTmax > runs["area"].SigmaTmax+1e-6 {
		t.Errorf("min-sigma %v above min-area sigma %v",
			runs["minsigma"].SigmaTmax, runs["area"].SigmaTmax)
	}
	if runs["maxsigma"].SigmaTmax < runs["area"].SigmaTmax-1e-6 {
		t.Errorf("max-sigma %v below min-area sigma %v",
			runs["maxsigma"].SigmaTmax, runs["area"].SigmaTmax)
	}
	if runs["maxsigma"].SigmaTmax-runs["minsigma"].SigmaTmax < 1e-4 {
		t.Errorf("sigma interval collapsed: [%v, %v]",
			runs["minsigma"].SigmaTmax, runs["maxsigma"].SigmaTmax)
	}
	if runs["minsigma"].SumS < runs["area"].SumS-1e-6 {
		t.Errorf("min-sigma area %v below min-area %v",
			runs["minsigma"].SumS, runs["area"].SumS)
	}
}

func TestFullSpaceMatchesReducedFig2(t *testing.T) {
	// Both formulations solve the same mathematical problem; their
	// optima must agree. Fig2 is the paper's worked example (eq 18).
	for _, k := range []float64{0, 3} {
		mR := fig2Model(t)
		outR, err := Size(mR, Spec{Objective: MinMuPlusKSigma(k), Formulation: Reduced})
		if err != nil {
			t.Fatal(err)
		}
		mF := fig2Model(t)
		outF, err := Size(mF, Spec{
			Objective:   MinMuPlusKSigma(k),
			Formulation: FullSpace,
			Solver:      nlp.Options{Method: nlp.NewtonCG},
		})
		if err != nil {
			t.Fatal(err)
		}
		phiR := outR.MuTmax + k*outR.SigmaTmax
		phiF := outF.MuTmax + k*outF.SigmaTmax
		if !close(phiR, phiF, 5e-3) {
			t.Errorf("k=%v: reduced %v vs full-space %v", k, phiR, phiF)
		}
		for _, id := range mR.G.C.GateIDs() {
			if !close(outR.S[id], outF.S[id], 0.05) {
				t.Errorf("k=%v: S[%s] reduced %v vs full %v",
					k, mR.G.C.Nodes[id].Name, outR.S[id], outF.S[id])
			}
		}
	}
}

func TestFullSpaceLBFGSTree(t *testing.T) {
	// The full-space formulation must also solve with the first-order
	// inner method.
	m := treeModel(t)
	out, err := Size(m, Spec{
		Objective:   MinMu(),
		Formulation: FullSpace,
		Solver:      nlp.Options{Method: nlp.LBFGS, MaxInner: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !close(out.SumS, 21, 0.1) {
		t.Errorf("full-space min-mu SumS = %v, want ~21", out.SumS)
	}
}

func TestDelayFormsAgree(t *testing.T) {
	// Eq 14 (division) and eq 15 (bilinear) define the same feasible
	// set; both full-space variants must find the same optimum.
	var phis []float64
	for _, form := range []DelayForm{Bilinear, Division} {
		m := fig2Model(t)
		out, err := Size(m, Spec{
			Objective:   MinMuPlusKSigma(3),
			Formulation: FullSpace,
			DelayForm:   form,
			Solver:      nlp.Options{Method: nlp.NewtonCG},
		})
		if err != nil {
			t.Fatalf("%v: %v", form, err)
		}
		phis = append(phis, out.MuTmax+3*out.SigmaTmax)
	}
	if !close(phis[0], phis[1], 1e-3) {
		t.Errorf("bilinear %v vs division %v", phis[0], phis[1])
	}
	if Bilinear.String() != "bilinear" || Division.String() != "division" {
		t.Error("DelayForm strings")
	}
}

func TestWarmStartFeasible(t *testing.T) {
	// The full-space warm start must satisfy every equality
	// constraint: a single merit evaluation at x0 should report
	// (almost) zero violation.
	m := fig2Model(t)
	out, err := Size(m, Spec{
		Objective:   MinMu(),
		Formulation: FullSpace,
		Solver:      nlp.Options{Method: nlp.NewtonCG, MaxOuter: 1, MaxInner: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// After one inner iteration from a feasible start the violation
	// cannot have grown beyond the merit step; loose sanity bound.
	if out.Solver.MaxViolation > 0.5 {
		t.Errorf("warm start violation = %v", out.Solver.MaxViolation)
	}
}

func TestDeterministicLimit(t *testing.T) {
	// With the Zero sigma model, sizing reduces to classic
	// deterministic gate sizing; the subgradient max still drives the
	// mean down.
	m := treeModel(t)
	m.Sigma = delay.Zero{}
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	out, err := Size(m, Spec{Objective: MinMu()})
	if err != nil {
		t.Fatal(err)
	}
	if out.MuTmax >= unit.Mu {
		t.Errorf("deterministic sizing did not improve: %v -> %v", unit.Mu, out.MuTmax)
	}
	if out.SigmaTmax != 0 {
		t.Errorf("deterministic sigma = %v", out.SigmaTmax)
	}
}

func TestStartVectorRespected(t *testing.T) {
	m := treeModel(t)
	start := m.UnitSizes()
	for _, id := range m.G.C.GateIDs() {
		start[id] = m.Limit
	}
	out, err := Size(m, Spec{Objective: MinMu(), Start: start})
	if err != nil {
		t.Fatal(err)
	}
	// Starting at the optimum (all at limit) must stay there.
	if !close(out.SumS, 21, 0.02) {
		t.Errorf("SumS = %v", out.SumS)
	}
}

func TestReducedRejectsNewton(t *testing.T) {
	m := treeModel(t)
	_, err := Size(m, Spec{Objective: MinMu(), Solver: nlp.Options{Method: nlp.NewtonCG}})
	if err == nil {
		t.Error("reduced+NewtonCG accepted")
	}
}

func TestSpecStrings(t *testing.T) {
	cases := map[string]string{
		MinMu().String():            "min mu",
		MinMuPlusKSigma(1).String(): "min mu+sigma",
		MinMuPlusKSigma(3).String(): "min mu+3sigma",
		MinArea().String():          "min area",
		MinSigma().String():         "min sigma",
		MaxSigma().String():         "max sigma",
		DelayLE(0, 120).String():    "mu <= 120",
		DelayLE(3, 120).String():    "mu+3sigma <= 120",
		MuEQ(5.8).String():          "mu = 5.8",
		Reduced.String():            "reduced",
		FullSpace.String():          "full-space",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestSizeApex2Scale(t *testing.T) {
	// The reduced formulation must handle the Table 1 small circuit
	// quickly and improve the delay substantially.
	if testing.Short() {
		t.Skip("optimization run")
	}
	m := delay.MustBind(netlist.MustCompile(netlist.Apex2Like()), delay.Default())
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	out, err := Size(m, Spec{Objective: MinMu()})
	if err != nil {
		t.Fatal(err)
	}
	checkBounds(t, m, out.S)
	if out.MuTmax > 0.85*unit.Mu {
		t.Errorf("apex2 min-mu only reached %v from %v", out.MuTmax, unit.Mu)
	}
}

func TestSymmetricGatesSizedEqually(t *testing.T) {
	// Paper Table 3: min-area and min-sigma treat the symmetric tree
	// gates {A, B, D, E} and {C, F} identically.
	m := treeModel(t)
	unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
	fast, err := Size(m, Spec{Objective: MinMu()})
	if err != nil {
		t.Fatal(err)
	}
	d := 0.5 * (unit.Mu + fast.MuTmax)
	for _, obj := range []Objective{MinArea(), MinSigma()} {
		out, err := Size(m, Spec{Objective: obj, Constraints: []Constraint{MuEQ(d)}})
		if err != nil {
			t.Fatal(err)
		}
		c := m.G.C
		groups := [][]string{{"A", "B", "D", "E"}, {"C", "F"}}
		for _, grp := range groups {
			first := out.S[c.MustID(grp[0])]
			for _, name := range grp[1:] {
				if !close(out.S[c.MustID(name)], first, 0.02) {
					t.Errorf("%v: S[%s] = %v differs from S[%s] = %v",
						obj, name, out.S[c.MustID(name)], grp[0], first)
				}
			}
		}
		// The output gate carries the largest factor (the full
		// increasing-toward-output pattern of the paper's Table 3 is
		// parameter-dependent and exercised with the calibrated
		// parameters in internal/bench).
		if !(out.S[c.MustID("G")] >= out.S[c.MustID("C")]-0.02 &&
			out.S[c.MustID("G")] >= out.S[c.MustID("A")]-0.02) {
			t.Errorf("%v: output gate not largest: A=%v C=%v G=%v",
				obj, out.S[c.MustID("A")], out.S[c.MustID("C")], out.S[c.MustID("G")])
		}
	}
}

// TestSizeRejectsBadInputs pins the solver entry point's boundary, in
// both formulations: a weight vector that is not one finite,
// non-negative weight per node, and non-finite risk factors or bounds,
// used to panic mid-solve or be absorbed into the problem.
func TestSizeRejectsBadInputs(t *testing.T) {
	m := treeModel(t)
	n := len(m.G.C.Nodes)
	weights := func(edit func(w []float64) []float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return edit(w)
	}
	nan, inf := math.NaN(), math.Inf(1)
	deadline := []Constraint{DelayLE(3, 6)}
	for name, spec := range map[string]Spec{
		"weights-short": {Objective: MinWeightedArea(), Constraints: deadline,
			Weights: weights(func(w []float64) []float64 { return w[:n-1] })},
		"weights-nan": {Objective: MinWeightedArea(), Constraints: deadline,
			Weights: weights(func(w []float64) []float64 { w[n-1] = nan; return w })},
		"weights-negative": {Objective: MinWeightedArea(), Constraints: deadline,
			Weights: weights(func(w []float64) []float64 { w[n-1] = -1; return w })},
		"objective-k-nan":  {Objective: MinMuPlusKSigma(nan)},
		"constraint-k-inf": {Objective: MinArea(), Constraints: []Constraint{DelayLE(inf, 6)}},
		"bound-nan":        {Objective: MinArea(), Constraints: []Constraint{DelayLE(3, nan)}},
	} {
		for _, f := range []Formulation{Reduced, FullSpace} {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				spec := spec
				spec.Formulation = f
				rejects(t, func() error {
					_, err := Size(m, spec)
					return err
				})
			})
		}
	}
	bad := *m
	bad.Limit = nan
	for _, f := range []Formulation{Reduced, FullSpace} {
		t.Run("limit-nan/"+f.String(), func(t *testing.T) {
			rejects(t, func() error {
				_, err := Size(&bad, Spec{Objective: MinMuPlusKSigma(0), Formulation: f})
				return err
			})
		})
	}
}
