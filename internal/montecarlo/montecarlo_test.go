package montecarlo

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/stats"
)

func close(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func model(t *testing.T, c *netlist.Circuit) *delay.Model {
	t.Helper()
	return delay.MustBind(netlist.MustCompile(c), delay.Default())
}

func TestRunRejectsBadOptions(t *testing.T) {
	m := model(t, netlist.Chain(2))
	if _, err := Run(m, m.UnitSizes(), Options{Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	m := model(t, netlist.Tree7())
	S := m.UnitSizes()
	a, err := Run(m, S, Options{Samples: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(m, S, Options{Samples: 1000, Seed: 5})
	if a.Mu != b.Mu || a.Sigma != b.Sigma {
		t.Error("same seed, different results")
	}
	c, _ := Run(m, S, Options{Samples: 1000, Seed: 6})
	if a.Mu == c.Mu {
		t.Error("different seed, identical mean (suspicious)")
	}
}

func TestChainMCMatchesExactConvolution(t *testing.T) {
	// On a chain the circuit delay is an exact sum of independent
	// normals, so both the analytic sweep and MC must agree with the
	// closed form to sampling error.
	g := netlist.MustCompile(netlist.Chain(6))
	m := delay.MustBind(g, delay.Default())
	S := m.UnitSizes()
	var want stats.MV
	for _, id := range g.C.GateIDs() {
		want = stats.Add(want, m.GateMV(id, S))
	}
	r, err := Run(m, S, Options{Samples: 400000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !close(r.Mu, want.Mu, 3e-3) {
		t.Errorf("MC mu %v vs exact %v", r.Mu, want.Mu)
	}
	if !close(r.Sigma, want.Sigma(), 5e-3) {
		t.Errorf("MC sigma %v vs exact %v", r.Sigma, want.Sigma())
	}
}

func TestAnalyticCloseToMCOnTree(t *testing.T) {
	// Tree7 has no reconvergence, so the independence assumption is
	// exact and analytic SSTA must match MC to sampling error.
	m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	S := m.UnitSizes()
	an := ssta.Analyze(m, S, false).Tmax
	cmp, err := CompareAnalytic(m, S, an, Options{Samples: 400000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.MuErr > 5e-3*an.Mu {
		t.Errorf("mu error %v too large (analytic %v, MC %v)", cmp.MuErr, an.Mu, cmp.MC.Mu)
	}
	if cmp.SigmaErr > 2e-2*an.Sigma() {
		t.Errorf("sigma error %v too large (analytic %v, MC %v)",
			cmp.SigmaErr, an.Sigma(), cmp.MC.Sigma)
	}
}

func TestAnalyticCloseToMCOnReconvergent(t *testing.T) {
	// Fig2 reconverges (a, b, c fan out to multiple gates; C feeds
	// both the output max and D). The independence approximation
	// introduces a small error the paper's ref [2] reports as minor;
	// assert it stays within a few percent.
	m := model(t, netlist.Fig2Example())
	S := m.UnitSizes()
	an := ssta.Analyze(m, S, false).Tmax
	cmp, err := CompareAnalytic(m, S, an, Options{Samples: 400000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.MuErr > 0.03*an.Mu {
		t.Errorf("reconvergent mu error %v (analytic %v, MC %v)", cmp.MuErr, an.Mu, cmp.MC.Mu)
	}
	if cmp.SigmaErr > 0.15*an.Sigma() {
		t.Errorf("reconvergent sigma error %v (analytic %v, MC %v)",
			cmp.SigmaErr, an.Sigma(), cmp.MC.Sigma)
	}
}

func TestCanonicalBeatsIndependenceOnReconvergence(t *testing.T) {
	// The correlation-aware canonical sweep (the paper's section 7
	// future work, implemented in ssta.AnalyzeCanonical) must close
	// most of the moment gap to Monte Carlo on reconvergent circuits.
	for _, c := range []*netlist.Circuit{netlist.Fig2Example(), netlist.Apex2Like()} {
		m := delay.MustBind(netlist.MustCompile(c), delay.Default())
		S := m.UnitSizes()
		ind := ssta.Analyze(m, S, false).Tmax
		can := ssta.AnalyzeCanonical(m, S).Tmax
		mc, err := Run(m, S, Options{Samples: 60000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		indMuErr := math.Abs(ind.Mu - mc.Mu)
		canMuErr := math.Abs(can.Mu - mc.Mu)
		if canMuErr > indMuErr+1e-6 {
			t.Errorf("%s: canonical mean error %v worse than independence %v",
				c.Name, canMuErr, indMuErr)
		}
		indSigErr := math.Abs(ind.Sigma() - mc.Sigma)
		canSigErr := math.Abs(can.Sigma() - mc.Sigma)
		if canSigErr > 0.5*indSigErr+1e-6 {
			t.Errorf("%s: canonical sigma error %v did not halve independence error %v",
				c.Name, canSigErr, indSigErr)
		}
		// Absolute quality: canonical sigma within 15% of MC.
		if canSigErr > 0.15*mc.Sigma {
			t.Errorf("%s: canonical sigma %v vs MC %v", c.Name, can.Sigma(), mc.Sigma)
		}
	}
}

func TestYieldAndQuantile(t *testing.T) {
	m := model(t, netlist.Tree7())
	S := m.UnitSizes()
	r, err := Run(m, S, Options{Samples: 200000, Seed: 23, KeepSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	an := ssta.Analyze(m, S, false).Tmax
	// The paper's section 4: deadlines at mu, mu+sigma, mu+3sigma
	// give ~50%, ~84.1%, ~99.8% yield.
	sigma := an.Sigma()
	cases := []struct {
		k, want, tol float64
	}{
		{0, 0.5, 0.02},
		{1, 0.841, 0.02},
		{3, 0.998, 0.005},
	}
	for _, c := range cases {
		y := r.Yield(an.Mu + c.k*sigma)
		if math.Abs(y-c.want) > c.tol {
			t.Errorf("yield at mu+%vsigma = %v, want ~%v", c.k, y, c.want)
		}
	}
	// Quantiles bracket the mean.
	if q := r.Quantile(0.5); !close(q, r.Mu, 0.02) {
		t.Errorf("median %v vs mean %v", q, r.Mu)
	}
	if r.Quantile(0) > r.Quantile(1) {
		t.Error("quantile extremes inverted")
	}
	if r.Quantile(0.999) <= r.Quantile(0.001) {
		t.Error("quantiles not increasing")
	}
}

func TestCircuitDelayIsNearlyNormal(t *testing.T) {
	// Paper section 3: the circuit delay distribution is close to
	// normal. Check the KS distance of the sampled delays to the
	// normal with the *sample* moments — the shape claim, independent
	// of the moment bias introduced by the independence assumption.
	m := model(t, netlist.Apex2Like())
	S := m.UnitSizes()
	r, err := Run(m, S, Options{Samples: 100000, Seed: 31, KeepSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := r.KSAgainst(stats.MV{Mu: r.Mu, Var: r.Sigma * r.Sigma}); d > 0.03 {
		t.Errorf("KS distance to moment-matched normal = %v", d)
	}
}

func TestReconvergenceErrorBounded(t *testing.T) {
	// The independence assumption (paper section 3, future work in
	// section 7) biases the analytic moments on reconvergent
	// circuits: the mean inflates slightly and sigma deflates.
	// Quantify and bound the effect on the Table 1 stand-ins: mean
	// within 5%, sigma within a factor of 3.
	for _, c := range []*netlist.Circuit{netlist.Apex2Like(), netlist.Apex1Like()} {
		m := delay.MustBind(netlist.MustCompile(c), delay.Default())
		S := m.UnitSizes()
		an := ssta.Analyze(m, S, false).Tmax
		r, err := Run(m, S, Options{Samples: 30000, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(an.Mu-r.Mu) / r.Mu; e > 0.05 {
			t.Errorf("%s: mean error %.1f%% (analytic %v, MC %v)", c.Name, 100*e, an.Mu, r.Mu)
		}
		if an.Mu < r.Mu-3*r.Sigma/math.Sqrt(30000)*r.Mu {
			t.Errorf("%s: analytic mean below MC mean (impossible for max-inflation)", c.Name)
		}
		ratio := r.Sigma / an.Sigma()
		if ratio > 3 || ratio < 1.0/1.5 {
			t.Errorf("%s: sigma ratio MC/analytic = %v out of bounds", c.Name, ratio)
		}
	}
}

func TestPanicsWithoutSamples(t *testing.T) {
	r := &Result{Mu: 1, Sigma: 1}
	for name, f := range map[string]func(){
		"Yield":     func() { r.Yield(1) },
		"Quantile":  func() { r.Quantile(0.5) },
		"KSAgainst": func() { r.KSAgainst(stats.MV{Mu: 1, Var: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s without samples did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInputArrivalSampling(t *testing.T) {
	m := model(t, netlist.Chain(1))
	in := m.G.C.MustID("in")
	m.Arrival[in] = stats.MV{Mu: 100, Var: 0}
	r, err := Run(m, m.UnitSizes(), Options{Samples: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mu < 100 {
		t.Errorf("input arrival ignored: mean %v", r.Mu)
	}
}
