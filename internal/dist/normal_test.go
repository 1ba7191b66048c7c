package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestPDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.3989422804014327},
		{1, 0.24197072451914337},
		{-1, 0.24197072451914337},
		{2, 0.05399096651318806},
		{3, 0.004431848411938008},
	}
	for _, c := range cases {
		if got := PDF(c.x); !almostEqual(got, c.want, 1e-15) {
			t.Errorf("PDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{3, 0.9986501019683699},
		{-3, 0.0013498980316300933},
		{1.959963984540054, 0.975},
	}
	for _, c := range cases {
		if got := CDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFSymmetry(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 20)
		return almostEqual(CDF(x)+CDF(-x), 1, 1e-14)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 50)
		b = math.Mod(b, 50)
		if a > b {
			a, b = b, a
		}
		return CDF(a) <= CDF(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPDFIsDerivativeOfCDF(t *testing.T) {
	const h = 1e-6
	for x := -5.0; x <= 5.0; x += 0.25 {
		fd := (CDF(x+h) - CDF(x-h)) / (2 * h)
		if !almostEqual(fd, PDF(x), 1e-8) {
			t.Errorf("d/dx CDF(%v) = %v, PDF = %v", x, fd, PDF(x))
		}
	}
}

func TestLogPDF(t *testing.T) {
	for x := -10.0; x <= 10.0; x += 0.5 {
		if got, want := LogPDF(x), math.Log(PDF(x)); !almostEqual(got, want, 1e-12) {
			t.Errorf("LogPDF(%v) = %v, want %v", x, got, want)
		}
	}
	// Must not underflow where PDF does.
	if got := LogPDF(100); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("LogPDF(100) = %v, want finite", got)
	}
}

// millsSeries is an independent reference for the Mills ratio at
// x >= 10: the asymptotic series 1/x - 1/x^3 + 3/x^5 - 15/x^7 + ...,
// summed up to its smallest term, where its truncation error
// (about exp(-x^2/2)) is far below double precision.
func millsSeries(x float64) float64 {
	ix2 := 1 / (x * x)
	term, sum := 1/x, 1/x
	for k := 1; ; k++ {
		next := -term * float64(2*k-1) * ix2
		if math.Abs(next) >= math.Abs(term) {
			return sum
		}
		sum += next
		term = next
	}
}

// TestMills checks the Mills ratio (1-Phi(x))/phi(x) against values
// that do not go through CDF: high-precision references in the upper
// tail, where 1 - CDF(x) cancels (it is 0 from x = 8.5 on), the
// asymptotic series over [10, 30), and the overflow to +Inf far in the
// lower tail.
func TestMills(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{8, 0.12313196325793229628},
		{8.5, 0.11608206338598229034},
		{10, 0.099028596471731921395},
		{15, 0.066374235823250173591},
		{20, 0.049875925981836783658},
		{25, 0.039936304769535592529},
		{29.9, 0.033407531001675072806},
	}
	for _, c := range cases {
		if got := Mills(c.x); !almostEqual(got, c.want, 1e-13) {
			t.Errorf("Mills(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	for x := 10.0; x < 30; x += 0.25 {
		if got, want := Mills(x), millsSeries(x); !almostEqual(got, want, 1e-13) {
			t.Errorf("Mills(%v) = %v, asymptotic series %v", x, got, want)
		}
	}
	// phi(-40) underflows while 1-Phi(-40) is 1: the ratio (6.8e347)
	// overflows.
	if got := Mills(-40); !math.IsInf(got, 1) {
		t.Errorf("Mills(-40) = %v, want +Inf", got)
	}
	// Large-x asymptotic branch: Mills(x) ~ 1/x - 1/x^3.
	want := 1/50.0 - 1/math.Pow(50, 3)
	if got := Mills(50); !almostEqual(got, want, 1e-5) {
		t.Errorf("Mills(50) = %v, want approx %v", got, want)
	}
}

func TestQuantileRoundTrip(t *testing.T) {
	for p := 1e-10; p < 1; p += 0.001 {
		x := Quantile(p)
		if got := CDF(x); !almostEqual(got, p, 1e-11) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestQuantileTails(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.9986501019683699, 3},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{1e-15, -7.941345326170997},
	}
	for _, c := range cases {
		if got := Quantile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsInf(Quantile(0), -1) {
		t.Error("Quantile(0) should be -Inf")
	}
	if !math.IsInf(Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	if !math.IsNaN(Quantile(math.NaN())) {
		t.Error("Quantile(NaN) should be NaN")
	}
}

func TestNormalValidate(t *testing.T) {
	good := []Normal{{0, 0}, {1, 2}, {-5, 0.1}}
	for _, n := range good {
		if err := n.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", n, err)
		}
	}
	bad := []Normal{
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{0, -1},
		{0, math.NaN()},
		{0, math.Inf(1)},
	}
	for _, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", n)
		}
	}
}

func TestNormalPointMass(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 0}
	if got := n.CDF(2.999); got != 0 {
		t.Errorf("point mass CDF below = %v", got)
	}
	if got := n.CDF(3); got != 1 {
		t.Errorf("point mass CDF at = %v", got)
	}
	if got := n.PDF(1); got != 0 {
		t.Errorf("point mass PDF off = %v", got)
	}
	if got := n.PDF(3); !math.IsInf(got, 1) {
		t.Errorf("point mass PDF at = %v", got)
	}
}

func TestNormalAdd(t *testing.T) {
	a := Normal{Mu: 1, Sigma: 3}
	b := Normal{Mu: 2, Sigma: 4}
	c := a.Add(b)
	if c.Mu != 3 || !almostEqual(c.Sigma, 5, 1e-15) {
		t.Errorf("Add = %v, want N(3,5)", c)
	}
}

func TestNormalAddCommutative(t *testing.T) {
	f := func(m1, s1, m2, s2 float64) bool {
		s1, s2 = math.Abs(math.Mod(s1, 10)), math.Abs(math.Mod(s2, 10))
		m1, m2 = math.Mod(m1, 100), math.Mod(m2, 100)
		a := Normal{m1, s1}
		b := Normal{m2, s2}
		x, y := a.Add(b), b.Add(a)
		return almostEqual(x.Mu, y.Mu, 1e-12) && almostEqual(x.Sigma, y.Sigma, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalShiftScale(t *testing.T) {
	n := Normal{Mu: 2, Sigma: 1.5}
	if s := n.Shift(3); s.Mu != 5 || s.Sigma != 1.5 {
		t.Errorf("Shift = %v", s)
	}
	if s := n.Scale(-2); s.Mu != -4 || s.Sigma != 3 {
		t.Errorf("Scale = %v", s)
	}
}

func TestNormalQuantileMedian(t *testing.T) {
	n := Normal{Mu: 7, Sigma: 2}
	if got := n.Quantile(0.5); !almostEqual(got, 7, 1e-12) {
		t.Errorf("median = %v", got)
	}
	if got := n.Quantile(0.8413447460685429); !almostEqual(got, 9, 1e-9) {
		t.Errorf("mu+sigma quantile = %v", got)
	}
}

func TestTruncatedBelowMoments(t *testing.T) {
	// Truncating far below the mean changes nothing.
	mu, sg := TruncatedBelowMoments(10, 1, -50)
	if !almostEqual(mu, 10, 1e-9) || !almostEqual(sg, 1, 1e-9) {
		t.Errorf("far truncation: mu=%v sigma=%v", mu, sg)
	}
	// Truncating a standard normal at its mean: mean = phi(0)/0.5,
	// known half-normal moments.
	mu, sg = TruncatedBelowMoments(0, 1, 0)
	wantMu := PDF(0) / 0.5
	wantSg := math.Sqrt(1 - wantMu*wantMu)
	if !almostEqual(mu, wantMu, 1e-12) || !almostEqual(sg, wantSg, 1e-12) {
		t.Errorf("half-normal: mu=%v sigma=%v want %v %v", mu, sg, wantMu, wantSg)
	}
	// Degenerate sigma.
	mu, sg = TruncatedBelowMoments(1, 0, 3)
	if mu != 3 || sg != 0 {
		t.Errorf("degenerate: %v %v", mu, sg)
	}
	// Entire mass below the cut collapses to the boundary.
	mu, sg = TruncatedBelowMoments(0, 1, 60)
	if mu != 60 || sg != 0 {
		t.Errorf("collapsed: %v %v", mu, sg)
	}
}

// TestTruncatedBelowMomentsUpperTail truncates a standard normal far
// into its upper tail, where the kept mass 1-Phi(alpha) must not be
// formed as 1 - CDF(alpha) (which loses 7 digits at 6 and is 0 from
// 8.5 on). References are high-precision evaluations of the closed
// form.
func TestTruncatedBelowMomentsUpperTail(t *testing.T) {
	cases := []struct{ lo, wantMu, wantSigma float64 }{
		{6, 6.1584826045445989173, 0.15487942661685822159},
		{9, 9.1085231050028687978, 0.10730699257139365605},
		{12, 12.08221417525428433, 0.081674514604286840085},
	}
	for _, c := range cases {
		mu, sg := TruncatedBelowMoments(0, 1, c.lo)
		if !almostEqual(mu, c.wantMu, 1e-12) || !almostEqual(sg, c.wantSigma, 1e-9) {
			t.Errorf("TruncatedBelowMoments(0, 1, %v) = (%v, %v), want (%v, %v)",
				c.lo, mu, sg, c.wantMu, c.wantSigma)
		}
	}
}

func TestTruncatedMomentsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 400000
	xs := make([]float64, 0, n)
	mu0, sg0, lo := 2.0, 1.5, 1.0
	for len(xs) < n {
		x := mu0 + sg0*rng.NormFloat64()
		if x >= lo {
			xs = append(xs, x)
		}
	}
	m, s := SampleMoments(xs)
	wm, ws := TruncatedBelowMoments(mu0, sg0, lo)
	if !almostEqual(m, wm, 5e-3) {
		t.Errorf("MC mean %v vs analytic %v", m, wm)
	}
	if !almostEqual(s, ws, 5e-3) {
		t.Errorf("MC sigma %v vs analytic %v", s, ws)
	}
}

func TestSampleMoments(t *testing.T) {
	m, s := SampleMoments([]float64{1, 2, 3, 4})
	if !almostEqual(m, 2.5, 1e-14) {
		t.Errorf("mean = %v", m)
	}
	if !almostEqual(s, math.Sqrt(1.25), 1e-14) {
		t.Errorf("sigma = %v", s)
	}
	if m, s := SampleMoments(nil); m != 0 || s != 0 {
		t.Errorf("empty moments = %v %v", m, s)
	}
}

func TestKSNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 3 + 2*rng.NormFloat64()
	}
	sort.Float64s(xs)
	d := KSNormal(xs, Normal{Mu: 3, Sigma: 2})
	// For a correct law, KS distance should be around 1/sqrt(n).
	if d > 0.02 {
		t.Errorf("KS distance %v too large for matching law", d)
	}
	// A wrong law must be flagged.
	if d2 := KSNormal(xs, Normal{Mu: 0, Sigma: 2}); d2 < 0.3 {
		t.Errorf("KS distance %v too small for wrong law", d2)
	}
}

func TestNormalString(t *testing.T) {
	got := Normal{Mu: 1.5, Sigma: 0.25}.String()
	if got != "N(1.5, 0.25)" {
		t.Errorf("String = %q", got)
	}
}
