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
