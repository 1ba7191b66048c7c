package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ad"
	"repro/internal/dist"
)

func close(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestAdd(t *testing.T) {
	c := Add(MV{1, 4}, MV{2, 9})
	if c.Mu != 3 || c.Var != 13 {
		t.Errorf("Add = %+v", c)
	}
}

func TestMax2SymmetricOperands(t *testing.T) {
	// Two iid N(0,1): known result mu = 1/sqrt(pi), var = 1 - 1/pi.
	c := Max2(MV{0, 1}, MV{0, 1})
	wantMu := 1 / math.Sqrt(math.Pi)
	wantVar := 1 - 1/math.Pi
	if !close(c.Mu, wantMu, 1e-12) {
		t.Errorf("mu = %v, want %v", c.Mu, wantMu)
	}
	if !close(c.Var, wantVar, 1e-12) {
		t.Errorf("var = %v, want %v", c.Var, wantVar)
	}
}

func TestMax2Commutative(t *testing.T) {
	f := func(m1, v1, m2, v2 float64) bool {
		a := MV{math.Mod(m1, 50), math.Abs(math.Mod(v1, 10))}
		b := MV{math.Mod(m2, 50), math.Abs(math.Mod(v2, 10))}
		x := Max2(a, b)
		y := Max2(b, a)
		return close(x.Mu, y.Mu, 1e-11) && close(x.Var, y.Var, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMax2DominatesOperandMeans(t *testing.T) {
	// E[max(A,B)] >= max(E[A], E[B]) always.
	f := func(m1, v1, m2, v2 float64) bool {
		a := MV{math.Mod(m1, 50), math.Abs(math.Mod(v1, 10))}
		b := MV{math.Mod(m2, 50), math.Abs(math.Mod(v2, 10))}
		c := Max2(a, b)
		return c.Mu >= math.Max(a.Mu, b.Mu)-1e-9 && c.Var >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMax2ShiftInvariance(t *testing.T) {
	// max(A+s, B+s) = max(A,B)+s in mean, identical variance.
	f := func(m1, v1, m2, v2, s float64) bool {
		a := MV{math.Mod(m1, 20), math.Abs(math.Mod(v1, 5))}
		b := MV{math.Mod(m2, 20), math.Abs(math.Mod(v2, 5))}
		s = math.Mod(s, 1e4)
		c := Max2(a, b)
		cs := Max2(MV{a.Mu + s, a.Var}, MV{b.Mu + s, b.Var})
		return close(cs.Mu, c.Mu+s, 1e-9) && close(cs.Var, c.Var, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMax2DegeneratesToDeterministicMax(t *testing.T) {
	// Zero variances: exact deterministic max.
	c := Max2(MV{3, 0}, MV{5, 0})
	if c.Mu != 5 || c.Var != 0 {
		t.Errorf("det max = %+v", c)
	}
	// One dominant operand: result converges to the winner.
	c = Max2(MV{100, 1}, MV{0, 1})
	if !close(c.Mu, 100, 1e-12) || !close(c.Var, 1, 1e-9) {
		t.Errorf("dominant = %+v", c)
	}
	// Far-apart with small sigma must not produce negative variance.
	c = Max2(MV{1e6, 1e-6}, MV{0, 1e-6})
	if c.Var < 0 {
		t.Errorf("negative variance %v", c.Var)
	}
	if !close(c.Mu, 1e6, 1e-12) || !close(c.Var, 1e-6, 1e-6) {
		t.Errorf("far apart = %+v", c)
	}
}

func TestMax2AgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := [][2]MV{
		{{0, 1}, {0, 1}},
		{{5, 4}, {6, 1}},
		{{10, 0.25}, {9.5, 2.25}},
		{{-3, 9}, {2, 0.01}},
		{{0, 0}, {0.1, 1}}, // one deterministic operand
	}
	for _, c := range cases {
		want := Max2(c[0], c[1])
		got := SampleMax2(c[0], c[1], 600000, rng)
		if !close(got.Mu, want.Mu, 8e-3) {
			t.Errorf("max(%+v,%+v): MC mu %v vs analytic %v", c[0], c[1], got.Mu, want.Mu)
		}
		sa, sw := math.Sqrt(got.Var), math.Sqrt(want.Var)
		if math.Abs(sa-sw) > 8e-3*math.Max(1, sw) {
			t.Errorf("max(%+v,%+v): MC sigma %v vs analytic %v", c[0], c[1], sa, sw)
		}
	}
}

func TestMax2MomentsMatchDensityIntegral(t *testing.T) {
	// Numerically integrate x f_C(x) and x^2 f_C(x) against eq 9 and
	// compare with the closed-form moments (eqs 10, 12, 13).
	a := MV{2, 1.44}
	b := MV{2.5, 0.49}
	c := Max2(a, b)
	const n = 200000
	lo, hi := -10.0, 15.0
	h := (hi - lo) / n
	var m0, m1, m2 float64
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*h
		w := h
		if i == 0 || i == n {
			w = h / 2
		}
		f := MaxDensity(a, b, x)
		m0 += w * f
		m1 += w * f * x
		m2 += w * f * x * x
	}
	if !close(m0, 1, 1e-6) {
		t.Errorf("density mass = %v", m0)
	}
	if !close(m1, c.Mu, 1e-6) {
		t.Errorf("integral mean %v vs analytic %v", m1, c.Mu)
	}
	if v := m2 - m1*m1; !close(v, c.Var, 1e-5) {
		t.Errorf("integral var %v vs analytic %v", v, c.Var)
	}
}

func TestMaxCDFIsProduct(t *testing.T) {
	a := MV{1, 1}
	b := MV{0, 4}
	for x := -5.0; x < 8; x += 0.5 {
		want := a.Normal().CDF(x) * b.Normal().CDF(x)
		if got := MaxCDF(a, b, x); !close(got, want, 1e-14) {
			t.Errorf("MaxCDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestNormalApproxErrorSmall(t *testing.T) {
	// The paper's claim: the max of two normals is close to normal.
	// Worst case is comparable operands; the KS-style CDF gap should
	// stay within a couple of percent.
	e := NormalApproxError(MV{0, 1}, MV{0, 1}, 5, 2001)
	if e > 0.03 {
		t.Errorf("normal approximation error %v too large", e)
	}
	// Dominated case: essentially exact.
	e = NormalApproxError(MV{10, 1}, MV{0, 1}, 5, 2001)
	if e > 1e-6 {
		t.Errorf("dominated approximation error %v", e)
	}
}

func TestMaxN(t *testing.T) {
	ms := []MV{{1, 0.5}, {2, 0.25}, {1.5, 1}}
	want := Max2(Max2(ms[0], ms[1]), ms[2])
	got := MaxN(ms)
	if got != want {
		t.Errorf("MaxN = %+v, want %+v", got, want)
	}
	if got := MaxN([]MV{{3, 7}}); got != (MV{3, 7}) {
		t.Errorf("MaxN single = %+v", got)
	}
}

func TestMaxNPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaxN(nil) did not panic")
		}
	}()
	MaxN(nil)
}

// jacCases are representative operand pairs covering comparable,
// skewed, dominant and near-deterministic regimes.
var jacCases = [][2]MV{
	{{0, 1}, {0, 1}},
	{{5, 4}, {6, 1}},
	{{10, 0.25}, {9.5, 2.25}},
	{{-3, 9}, {2, 0.01}},
	{{1, 2}, {1, 2}},
	{{7, 1e-6}, {7.001, 1e-6}},
	{{2, 0}, {1, 1}},
	{{200, 1}, {100, 3}},
}

func TestMax2JacValueMatchesMax2(t *testing.T) {
	for _, c := range jacCases {
		v1 := Max2(c[0], c[1])
		v2, _ := Max2Jac(c[0], c[1])
		if !close(v1.Mu, v2.Mu, 1e-14) || !close(v1.Var, v2.Var, 1e-12) {
			t.Errorf("value mismatch for %+v: %+v vs %+v", c, v1, v2)
		}
	}
}

func TestMax2JacAgainstHyperDual(t *testing.T) {
	for _, c := range jacCases {
		if Degenerate(c[0], c[1]) {
			continue
		}
		_, j := Max2Jac(c[0], c[1])
		x := []float64{c[0].Mu, c[0].Var, c[1].Mu, c[1].Var}
		_, gMu := ad.Gradient(func(v []ad.HyperDual) ad.HyperDual { return max2HD(v, 0) }, x)
		_, gVar := ad.Gradient(func(v []ad.HyperDual) ad.HyperDual { return max2HD(v, 1) }, x)
		for k := 0; k < 4; k++ {
			if !close(j[0][k], gMu[k], 1e-9) {
				t.Errorf("case %+v dmu[%d]: analytic %v, AD %v", c, k, j[0][k], gMu[k])
			}
			if !close(j[1][k], gVar[k], 1e-9) {
				t.Errorf("case %+v dvar[%d]: analytic %v, AD %v", c, k, j[1][k], gVar[k])
			}
		}
	}
}

func TestMax2JacAgainstFiniteDifferences(t *testing.T) {
	for _, c := range jacCases {
		if Degenerate(c[0], c[1]) || c[0].Var < 1e-4 || c[1].Var < 1e-4 {
			continue // FD is unreliable near the variance boundary
		}
		_, j := Max2Jac(c[0], c[1])
		x := []float64{c[0].Mu, c[0].Var, c[1].Mu, c[1].Var}
		eval := func(x []float64) MV { return Max2(MV{x[0], x[1]}, MV{x[2], x[3]}) }
		for k := 0; k < 4; k++ {
			h := 1e-6 * math.Max(1, math.Abs(x[k]))
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[k] += h
			xm[k] -= h
			vp, vm := eval(xp), eval(xm)
			fdMu := (vp.Mu - vm.Mu) / (2 * h)
			fdVar := (vp.Var - vm.Var) / (2 * h)
			if !close(j[0][k], fdMu, 2e-5) {
				t.Errorf("case %+v FD dmu[%d]: analytic %v, FD %v", c, k, j[0][k], fdMu)
			}
			if !close(j[1][k], fdVar, 2e-5) {
				t.Errorf("case %+v FD dvar[%d]: analytic %v, FD %v", c, k, j[1][k], fdVar)
			}
		}
	}
}

func TestMax2JacDegenerate(t *testing.T) {
	// Deterministic winner.
	v, j := Max2Jac(MV{5, 0}, MV{3, 0})
	if v.Mu != 5 || j[0][0] != 1 || j[0][2] != 0 || j[1][1] != 1 {
		t.Errorf("winner jac = %+v %+v", v, j)
	}
	v, j = Max2Jac(MV{3, 0}, MV{5, 0})
	if v.Mu != 5 || j[0][2] != 1 || j[0][0] != 0 || j[1][3] != 1 {
		t.Errorf("winner jac (swapped) = %+v %+v", v, j)
	}
	// Exact tie: split derivative.
	_, j = Max2Jac(MV{4, 0}, MV{4, 0})
	if j[0][0] != 0.5 || j[0][2] != 0.5 {
		t.Errorf("tie jac = %+v", j)
	}
}

func TestMax2AndMax2JacAgreeOnDegenerateTie(t *testing.T) {
	// Regression: on an exact mean tie in the degenerate branch Max2
	// used to return a.Var while Max2Jac returned max(a.Var, b.Var),
	// so taped and untaped sweeps could diverge. Both must now return
	// the larger residual variance, whichever operand holds it.
	cases := [][2]MV{
		{{4, 1e-26}, {4, 3e-26}},
		{{4, 3e-26}, {4, 1e-26}},
		{{-2, 0}, {-2, 5e-25}},
		{{0, 0}, {0, 0}},
	}
	for _, c := range cases {
		if !Degenerate(c[0], c[1]) {
			t.Fatalf("case %+v not degenerate", c)
		}
		v1 := Max2(c[0], c[1])
		v2, _ := Max2Jac(c[0], c[1])
		if v1 != v2 {
			t.Errorf("tie disagreement for %+v: Max2 %+v vs Max2Jac %+v", c, v1, v2)
		}
		if want := math.Max(c[0].Var, c[1].Var); v1.Var != want {
			t.Errorf("tie var for %+v = %v, want %v", c, v1.Var, want)
		}
	}
}

func TestMax2JacFiniteDifferencesNearDegenerateTie(t *testing.T) {
	// Spot-check the analytic Jacobian just above the degenerate
	// floor, where the operands tie in mean and carry tiny variances —
	// the regime the degenerate branch hands over to Clark's formulas.
	// Means sit at zero so central differences do not lose the signal
	// to cancellation against a large common mean.
	cases := [][2]MV{
		{{0, 1e-4}, {0, 2.25e-4}},
		{{0, 1e-6}, {0, 1e-6}},
		{{1e-9, 4e-5}, {0, 4e-5}},
	}
	for _, c := range cases {
		if Degenerate(c[0], c[1]) {
			t.Fatalf("case %+v fell below the degenerate floor", c)
		}
		_, j := Max2Jac(c[0], c[1])
		x := []float64{c[0].Mu, c[0].Var, c[1].Mu, c[1].Var}
		theta := math.Sqrt(c[0].Var + c[1].Var)
		eval := func(x []float64) MV { return Max2(MV{x[0], x[1]}, MV{x[2], x[3]}) }
		for k := 0; k < 4; k++ {
			// Means vary on the scale of theta, variances on their own
			// magnitude; step well inside both scales.
			h := 1e-6 * theta
			if k == 1 || k == 3 {
				h = 1e-4 * x[k]
			}
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[k] += h
			xm[k] -= h
			vp, vm := eval(xp), eval(xm)
			fdMu := (vp.Mu - vm.Mu) / (2 * h)
			fdVar := (vp.Var - vm.Var) / (2 * h)
			if !close(j[0][k], fdMu, 1e-4) {
				t.Errorf("case %+v near-tie dmu[%d]: analytic %v, FD %v", c, k, j[0][k], fdMu)
			}
			if !close(j[1][k], fdVar, 1e-4) {
				t.Errorf("case %+v near-tie dvar[%d]: analytic %v, FD %v", c, k, j[1][k], fdVar)
			}
		}
	}
}

func TestMax2JacRowSumProperty(t *testing.T) {
	// Shift invariance implies d muC/d muA + d muC/d muB = 1.
	f := func(m1, v1, m2, v2 float64) bool {
		a := MV{math.Mod(m1, 20), 0.01 + math.Abs(math.Mod(v1, 5))}
		b := MV{math.Mod(m2, 20), 0.01 + math.Abs(math.Mod(v2, 5))}
		_, j := Max2Jac(a, b)
		return close(j[0][0]+j[0][2], 1, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// max2Hessians returns the 4x4 Hessians of muC and varC with respect
// to (muA, varA, muB, varB) by hyper-dual forward AD over the Clark
// formulas (max2HD): the test oracle for closed-form Clark second
// derivatives. The point must be non-degenerate.
func max2Hessians(a, b MV) (hMu, hVar [][]float64) {
	x := []float64{a.Mu, a.Var, b.Mu, b.Var}
	_, _, hMu = ad.Hessian(func(v []ad.HyperDual) ad.HyperDual { return max2HD(v, 0) }, x)
	_, _, hVar = ad.Hessian(func(v []ad.HyperDual) ad.HyperDual { return max2HD(v, 1) }, x)
	return hMu, hVar
}

func TestMax2HessiansAgainstFiniteDifferences(t *testing.T) {
	a := MV{2, 1.2}
	b := MV{2.4, 0.8}
	hMu, hVar := max2Hessians(a, b)
	x := []float64{a.Mu, a.Var, b.Mu, b.Var}
	grad := func(x []float64) Jac2x4 {
		_, j := Max2Jac(MV{x[0], x[1]}, MV{x[2], x[3]})
		return j
	}
	for k := 0; k < 4; k++ {
		h := 1e-6
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[k] += h
		xm[k] -= h
		jp, jm := grad(xp), grad(xm)
		for l := 0; l < 4; l++ {
			fdMu := (jp[0][l] - jm[0][l]) / (2 * h)
			fdVar := (jp[1][l] - jm[1][l]) / (2 * h)
			if !close(hMu[k][l], fdMu, 1e-4) {
				t.Errorf("hMu[%d][%d] = %v, FD %v", k, l, hMu[k][l], fdMu)
			}
			if !close(hVar[k][l], fdVar, 1e-4) {
				t.Errorf("hVar[%d][%d] = %v, FD %v", k, l, hVar[k][l], fdVar)
			}
		}
	}
}

func TestMax2HessianSymmetry(t *testing.T) {
	hMu, hVar := max2Hessians(MV{1, 0.7}, MV{1.1, 1.3})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !close(hMu[i][j], hMu[j][i], 1e-12) {
				t.Errorf("hMu asymmetric at %d,%d", i, j)
			}
			if !close(hVar[i][j], hVar[j][i], 1e-12) {
				t.Errorf("hVar asymmetric at %d,%d", i, j)
			}
		}
	}
}

func TestPaperExampleChainNumbers(t *testing.T) {
	// Sanity numbers for a balanced two-level merge, computed from
	// the closed forms and checked here against literal constants so
	// regressions in the operator change a visible quantity.
	// max of two iid N(2.8, 0.7^2):
	c := Max2(MV{2.8, 0.49}, MV{2.8, 0.49})
	theta := 0.7 * math.Sqrt2
	wantMu := 2.8 + theta*dist.PDF(0)
	if !close(c.Mu, wantMu, 1e-12) {
		t.Errorf("chain mu = %v, want %v", c.Mu, wantMu)
	}
	// For iid operands var(max) = s^2 (1 - 1/pi), independent of the
	// common mean; check the centered pair against the closed form
	// and the shifted pair against the centered one.
	cc := Max2(MV{0, 0.49}, MV{0, 0.49})
	if !close(cc.Var, 0.49*(1-1/math.Pi), 1e-12) {
		t.Errorf("centered var = %v, want %v", cc.Var, 0.49*(1-1/math.Pi))
	}
	if !close(c.Var, cc.Var, 1e-12) {
		t.Errorf("shift changed variance: %v vs %v", c.Var, cc.Var)
	}
}
