package ssta

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
)

func approxEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func treeModel(t *testing.T) *delay.Model {
	t.Helper()
	g := netlist.MustCompile(netlist.Tree7())
	return delay.MustBind(g, delay.PaperTree())
}

func TestAnalyzeChainIsSumOfDelays(t *testing.T) {
	// A single-fanin chain has no maxima: moments just add.
	g := netlist.MustCompile(netlist.Chain(5))
	m := delay.MustBind(g, delay.Default())
	m.Sigma = delay.Proportional{K: 0.25}
	S := m.UnitSizes()
	r := Analyze(m, S, false)
	var wantMu, wantVar float64
	for _, id := range g.C.GateIDs() {
		mv := m.GateMV(id, S)
		wantMu += mv.Mu
		wantVar += mv.Var
	}
	if !approxEq(r.Tmax.Mu, wantMu, 1e-12) {
		t.Errorf("chain mu = %v, want %v", r.Tmax.Mu, wantMu)
	}
	if !approxEq(r.Tmax.Var, wantVar, 1e-12) {
		t.Errorf("chain var = %v, want %v", r.Tmax.Var, wantVar)
	}
}

func TestAnalyzeTreeMatchesManualFold(t *testing.T) {
	m := treeModel(t)
	S := m.UnitSizes()
	c := m.G.C
	r := Analyze(m, S, false)

	// Recompute by hand: levels are symmetric under unit sizing.
	tA := m.GateMV(c.MustID("A"), S) // == B, D, E
	TA := tA                         // inputs arrive at 0 deterministic
	u := stats.Max2(TA, TA)
	tC := m.GateMV(c.MustID("C"), S)
	TC := stats.Add(u, tC)
	uG := stats.Max2(TC, TC)
	tG := m.GateMV(c.MustID("G"), S)
	TG := stats.Add(uG, tG)

	if !approxEq(r.Tmax.Mu, TG.Mu, 1e-12) || !approxEq(r.Tmax.Var, TG.Var, 1e-12) {
		t.Errorf("tree Tmax = %+v, manual %+v", r.Tmax, TG)
	}
	if !approxEq(r.Arrival[c.MustID("C")].Mu, TC.Mu, 1e-12) {
		t.Errorf("arrival(C) = %+v, manual %+v", r.Arrival[c.MustID("C")], TC)
	}
}

func TestAnalyzeTapeMatchesUntaped(t *testing.T) {
	g := netlist.MustCompile(netlist.Fig2Example())
	m := delay.MustBind(g, delay.Default())
	S := m.UnitSizes()
	a := Analyze(m, S, false)
	b := Analyze(m, S, true)
	if a.Tmax != b.Tmax {
		t.Errorf("taped %+v vs untaped %+v", b.Tmax, a.Tmax)
	}
}

func TestStatisticalMeanAboveDeterministic(t *testing.T) {
	for _, c := range []*netlist.Circuit{netlist.Tree7(), netlist.Fig2Example(), netlist.Apex2Like()} {
		g := netlist.MustCompile(c)
		m := delay.MustBind(g, delay.Default())
		S := m.UnitSizes()
		stat := Analyze(m, S, false)
		det := DetAnalyze(m, S)
		if stat.Tmax.Mu < det.Tmax-1e-9 {
			t.Errorf("%s: statistical mean %v below deterministic %v",
				c.Name, stat.Tmax.Mu, det.Tmax)
		}
	}
}

func TestZeroSigmaMatchesDeterministic(t *testing.T) {
	g := netlist.MustCompile(netlist.Apex2Like())
	m := delay.MustBind(g, delay.Default())
	m.Sigma = delay.Zero{}
	S := m.UnitSizes()
	stat := Analyze(m, S, false)
	det := DetAnalyze(m, S)
	if !approxEq(stat.Tmax.Mu, det.Tmax, 1e-9) {
		t.Errorf("zero-sigma statistical %v vs deterministic %v", stat.Tmax.Mu, det.Tmax)
	}
	if stat.Tmax.Var > 1e-12 {
		t.Errorf("zero-sigma variance %v", stat.Tmax.Var)
	}
}

func TestInputArrivalsRespected(t *testing.T) {
	g := netlist.MustCompile(netlist.Chain(1))
	m := delay.MustBind(g, delay.Default())
	in := g.C.MustID("in")
	m.Arrival[in] = stats.MV{Mu: 5, Var: 0.04}
	S := m.UnitSizes()
	r := Analyze(m, S, false)
	gd := m.GateMV(g.C.GateIDs()[0], S)
	if !approxEq(r.Tmax.Mu, 5+gd.Mu, 1e-12) {
		t.Errorf("Tmax.Mu = %v", r.Tmax.Mu)
	}
	if !approxEq(r.Tmax.Var, 0.04+gd.Var, 1e-12) {
		t.Errorf("Tmax.Var = %v", r.Tmax.Var)
	}
}

func gradFD(m *delay.Model, S []float64, k float64, id netlist.NodeID) float64 {
	h := 1e-6
	Sp := append([]float64(nil), S...)
	Sm := append([]float64(nil), S...)
	Sp[id] += h
	Sm[id] -= h
	rp := Analyze(m, Sp, false)
	rm := Analyze(m, Sm, false)
	pp, _, _ := ObjectiveMuPlusKSigma(rp.Tmax, k)
	pm, _, _ := ObjectiveMuPlusKSigma(rm.Tmax, k)
	return (pp - pm) / (2 * h)
}

func TestBackwardGradientAgainstFD(t *testing.T) {
	circuits := []*netlist.Circuit{
		netlist.Tree7(),
		netlist.Fig2Example(),
		netlist.Chain(4),
		netlist.Apex2Like(),
	}
	for _, c := range circuits {
		g := netlist.MustCompile(c)
		lib := delay.Default()
		if c.Name == "tree7" {
			lib = delay.PaperTree()
		}
		m := delay.MustBind(g, lib)
		S := m.UnitSizes()
		// Non-uniform sizes so no accidental symmetry hides errors.
		for i, id := range c.GateIDs() {
			S[id] = 1 + 0.1*float64(i%7)
		}
		for _, k := range []float64{0, 1, 3} {
			_, grad := GradMuPlusKSigma(m, S, k)
			// Spot-check a spread of gates (all gates for small
			// circuits, a sample for apex2).
			ids := c.GateIDs()
			step := 1
			if len(ids) > 20 {
				step = len(ids) / 10
			}
			for i := 0; i < len(ids); i += step {
				id := ids[i]
				fd := gradFD(m, S, k, id)
				if !approxEq(grad[id], fd, 2e-4) {
					t.Errorf("%s k=%v d/dS[%s]: adjoint %v, FD %v",
						c.Name, k, c.Nodes[id].Name, grad[id], fd)
				}
			}
		}
	}
}

func TestBackwardRequiresTape(t *testing.T) {
	m := treeModel(t)
	S := m.UnitSizes()
	r := Analyze(m, S, false)
	defer func() {
		if recover() == nil {
			t.Error("Backward without tape did not panic")
		}
	}()
	r.Backward(m, S, 1, 0)
}

func TestObjectiveMuPlusKSigma(t *testing.T) {
	mv := stats.MV{Mu: 10, Var: 4}
	phi, sMu, sVar := ObjectiveMuPlusKSigma(mv, 3)
	if !approxEq(phi, 16, 1e-12) {
		t.Errorf("phi = %v", phi)
	}
	if sMu != 1 || !approxEq(sVar, 3.0/(2*2), 1e-12) {
		t.Errorf("seeds = %v %v", sMu, sVar)
	}
	// k = 0 short-circuits.
	phi, sMu, sVar = ObjectiveMuPlusKSigma(mv, 0)
	if phi != 10 || sMu != 1 || sVar != 0 {
		t.Errorf("k=0: %v %v %v", phi, sMu, sVar)
	}
	// Zero variance stays finite.
	_, _, sVar = ObjectiveMuPlusKSigma(stats.MV{Mu: 1, Var: 0}, 1)
	if math.IsInf(sVar, 0) || math.IsNaN(sVar) {
		t.Errorf("seedVar at zero variance = %v", sVar)
	}
}

func TestCriticalityTree(t *testing.T) {
	m := treeModel(t)
	S := m.UnitSizes()
	crit := CriticalityWorkers(m, S, 1)
	c := m.G.C
	// The output gate is fully critical.
	if g := crit[c.MustID("G")]; !approxEq(g, 1, 1e-9) {
		t.Errorf("crit(G) = %v", g)
	}
	// Symmetric gates share criticality. Note the split is not an
	// exact halving: mu_t also feeds Tmax through the sigma model
	// (larger mu_t -> larger var_t -> larger downstream max mean), so
	// sibling criticalities sum to slightly more than the parent's.
	cC, cF := crit[c.MustID("C")], crit[c.MustID("F")]
	if !approxEq(cC, cF, 1e-9) {
		t.Errorf("crit(C,F) differ: %v %v", cC, cF)
	}
	cA, cB := crit[c.MustID("A")], crit[c.MustID("B")]
	if !approxEq(cA, cB, 1e-9) {
		t.Errorf("crit(A,B) differ: %v %v", cA, cB)
	}
	// Criticality grows toward the output.
	if !(cA < cC && cC < 1+1e-9) {
		t.Errorf("criticality ordering violated: A=%v C=%v G=1", cA, cC)
	}
}

func TestCriticalityMatchesBackwardSeed(t *testing.T) {
	// Criticality must equal d muTmax / d mu_t; check against a
	// finite difference on TInt.
	g := netlist.MustCompile(netlist.Fig2Example())
	m := delay.MustBind(g, delay.Default())
	S := m.UnitSizes()
	crit := CriticalityWorkers(m, S, 1)
	for _, id := range g.C.GateIDs() {
		h := 1e-6
		old := m.TInt[id]
		m.TInt[id] = old + h
		up := Analyze(m, S, false).Tmax.Mu
		m.TInt[id] = old - h
		dn := Analyze(m, S, false).Tmax.Mu
		m.TInt[id] = old
		fd := (up - dn) / (2 * h)
		// The sigma model couples var_t to mu_t, so the FD includes
		// d var/d mu effects exactly as Criticality does.
		if !approxEq(crit[id], fd, 1e-4) {
			t.Errorf("crit(%s) = %v, FD %v", g.C.Nodes[id].Name, crit[id], fd)
		}
	}
}

func TestDetAnalyzeChain(t *testing.T) {
	g := netlist.MustCompile(netlist.Chain(3))
	m := delay.MustBind(g, delay.Default())
	S := m.UnitSizes()
	r := DetAnalyze(m, S)
	var want float64
	for _, id := range g.C.GateIDs() {
		want += m.GateMu(id, S)
	}
	if !approxEq(r.Tmax, want, 1e-12) {
		t.Errorf("det chain = %v, want %v", r.Tmax, want)
	}
	path := r.CriticalPath(m)
	if len(path) != 4 { // input + 3 gates
		t.Errorf("path length = %d", len(path))
	}
	if g.C.Nodes[path[0]].Kind != netlist.KindInput {
		t.Error("path does not start at an input")
	}
	if path[len(path)-1] != r.CriticalOutput {
		t.Error("path does not end at critical output")
	}
}

func TestDetCriticalPathIsMonotone(t *testing.T) {
	g := netlist.MustCompile(netlist.Apex2Like())
	m := delay.MustBind(g, delay.Default())
	S := m.UnitSizes()
	r := DetAnalyze(m, S)
	path := r.CriticalPath(m)
	for i := 1; i < len(path); i++ {
		if r.Arrival[path[i]] < r.Arrival[path[i-1]]-1e-12 {
			t.Errorf("arrival decreases along path at %d", i)
		}
	}
}

func TestSizingUpReducesTmax(t *testing.T) {
	// Upsizing everything to the limit must reduce both the mean
	// circuit delay and the deterministic delay on the tree.
	m := treeModel(t)
	S1 := m.UnitSizes()
	S3 := m.UnitSizes()
	for _, id := range m.G.C.GateIDs() {
		S3[id] = m.Limit
	}
	r1 := Analyze(m, S1, false)
	r3 := Analyze(m, S3, false)
	if r3.Tmax.Mu >= r1.Tmax.Mu {
		t.Errorf("upsizing did not reduce mean delay: %v -> %v", r1.Tmax.Mu, r3.Tmax.Mu)
	}
	if r3.Tmax.Var >= r1.Tmax.Var {
		t.Errorf("upsizing did not reduce variance: %v -> %v", r1.Tmax.Var, r3.Tmax.Var)
	}
}
