package dist

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sameBits reports whether a and b are the same float64, telling ±0
// apart and treating every NaN as equal.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkCDFPair compares both outputs of CDFPair, and CDF, with the
// stdlib expressions they replace.
func checkCDFPair(t *testing.T, x float64) {
	t.Helper()
	p, q := CDFPair(x)
	wantP, wantQ := 0.5*math.Erfc(-x/Sqrt2), 0.5*math.Erfc(x/Sqrt2)
	if !sameBits(p, wantP) || !sameBits(q, wantQ) {
		t.Fatalf("CDFPair(%v [%#x]) = (%v, %v), want (%v, %v)",
			x, math.Float64bits(x), p, q, wantP, wantQ)
	}
	if c := CDF(x); !sameBits(c, wantP) {
		t.Fatalf("CDF(%v) = %v, want %v", x, c, wantP)
	}
}

// skipArchErfc skips on the one platform whose math.Erfc is assembly
// rather than the pure-Go algorithm the core reproduces.
func skipArchErfc(t testing.TB) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Erfc is an assembly routine on s390x")
	}
}

// cdfPairEdges returns ±0, subnormals, ±Inf, NaN, the extremes of the
// float64 range, and every branch boundary of the erfc core (0.84375,
// 1.25, 1/0.35, 6 and 28 on |x|/Sqrt2, plus the 2**-56 tiny cut) with
// its Nextafter neighbours, mapped into x and taken with both signs.
func cdfPairEdges() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 4 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		0x1p-1022, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, b := range []float64{0x1p-56, 0.25, 0.84375, 1.25, 1 / 0.35, 6, 28} {
		for _, a := range []float64{math.Nextafter(b, 0), b, math.Nextafter(b, 100)} {
			x := a * Sqrt2
			xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, 100))
		}
	}
	n := len(xs)
	for _, x := range xs[:n] {
		xs = append(xs, -x)
	}
	return xs
}

// TestCDFPairBitwise pins CDFPair to 0.5*math.Erfc(∓x/Sqrt2) bit for
// bit on every edge and branch boundary of the erfc core and on 10^6
// random points spread log-uniformly over |x| in [1e-2, 1e2].
func TestCDFPairBitwise(t *testing.T) {
	skipArchErfc(t)
	for _, x := range cdfPairEdges() {
		checkCDFPair(t, x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		x := math.Pow(10, -2+4*rng.Float64())
		if i&1 == 1 {
			x = -x
		}
		checkCDFPair(t, x)
	}
}

// FuzzCDFPair searches for inputs where CDFPair departs from the
// stdlib by even one bit. `make fuzz-kernels` runs it.
func FuzzCDFPair(f *testing.F) {
	for _, x := range cdfPairEdges() {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		skipArchErfc(t)
		checkCDFPair(t, x)
	})
}
