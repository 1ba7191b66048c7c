// Package dist provides scalar probability utilities for the normal
// distribution: density, cumulative distribution, quantile (inverse
// CDF), moments and simple truncation helpers.
//
// The statistical delay model of Jacobs & Berkelaar (DATE 2000) treats
// every arrival time and gate delay as a Gaussian random variable, so
// these scalar primitives underpin every other package in this module.
// Everything here is pure stdlib (math only) and allocation free.
package dist

import (
	"errors"
	"fmt"
	"math"
)

// InvSqrt2Pi is 1/sqrt(2*pi), the normalization constant of the
// standard normal density.
const InvSqrt2Pi = 0.3989422804014326779399460599343818684758586311649

// Sqrt2 is sqrt(2); kept as a named constant because the CDF is
// evaluated through erf(x/sqrt(2)) on the hot path.
const Sqrt2 = 1.4142135623730950488016887242096980785696718753769

// PDF returns the standard normal probability density at x,
// phi(x) = exp(-x^2/2)/sqrt(2*pi).
func PDF(x float64) float64 {
	return InvSqrt2Pi * math.Exp(-0.5*x*x)
}

// CDF returns the standard normal cumulative distribution at x,
// Phi(x) = P(Z <= x) for Z ~ N(0,1). This is the paper's phi-function
// (eq 11), implemented through the complementary error function: the
// first output of CDFPair, bit for bit 0.5*math.Erfc(-x/Sqrt2).
func CDF(x float64) float64 {
	p, _ := CDFPair(x)
	return p
}

// LogPDF returns log(phi(x)) without underflowing for large |x|.
func LogPDF(x float64) float64 {
	return -0.5*x*x - 0.9189385332046727417803297364056176398613974736378
}

// Mills returns the Mills ratio (1-Phi(x))/phi(x). The upper tail
// 1-Phi(x) is read as Phi(-x) from CDFPair, so it keeps full relative
// precision where 1 - CDF(x) would cancel to zero (x >= 8.5); from 30
// on the asymptotic series takes over. Far in the lower tail phi(x)
// underflows and the ratio is +Inf, its correctly rounded value. It is
// used when evaluating conditional tail moments.
func Mills(x float64) float64 {
	if x < 30 {
		_, q := CDFPair(x)
		return q / PDF(x)
	}
	// Asymptotic expansion 1/x - 1/x^3 + 3/x^5 - 15/x^7 for x -> inf.
	ix := 1 / x
	ix2 := ix * ix
	return ix * (1 - ix2*(1-ix2*(3-15*ix2)))
}

// Normal is a univariate normal distribution N(Mu, Sigma^2).
// Sigma must be non-negative; Sigma == 0 denotes a point mass at Mu,
// which arises naturally for primary-input arrival times.
type Normal struct {
	Mu    float64
	Sigma float64
}

// ErrBadSigma is returned by Validate for negative or non-finite
// standard deviations.
var ErrBadSigma = errors.New("dist: standard deviation must be finite and non-negative")

// Validate reports whether the distribution's parameters are usable.
func (n Normal) Validate() error {
	if math.IsNaN(n.Mu) || math.IsInf(n.Mu, 0) {
		return fmt.Errorf("dist: mean %v is not finite", n.Mu)
	}
	if n.Sigma < 0 || math.IsNaN(n.Sigma) || math.IsInf(n.Sigma, 0) {
		return fmt.Errorf("%w: got %v", ErrBadSigma, n.Sigma)
	}
	return nil
}

// Var returns the variance Sigma^2.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// PDF returns the density of the distribution at x. For a point mass
// (Sigma == 0) it returns +Inf at Mu and 0 elsewhere. A negative (or
// NaN) Sigma has no density: the result is NaN, an explicit signal
// rather than the sign-flipped garbage the formula would produce.
func (n Normal) PDF(x float64) float64 {
	if !(n.Sigma >= 0) {
		return math.NaN()
	}
	if n.Sigma == 0 {
		if x == n.Mu {
			return math.Inf(1)
		}
		return 0
	}
	return PDF((x-n.Mu)/n.Sigma) / n.Sigma
}

// CDF returns P(X <= x). A negative (or NaN) Sigma returns NaN (see
// PDF).
func (n Normal) CDF(x float64) float64 {
	if !(n.Sigma >= 0) {
		return math.NaN()
	}
	if n.Sigma == 0 {
		if x >= n.Mu {
			return 1
		}
		return 0
	}
	return CDF((x - n.Mu) / n.Sigma)
}

// Quantile returns the p-quantile of the distribution; p must lie in
// (0, 1) for a non-degenerate result. Quantile(0.5) == Mu exactly. A
// point mass (Sigma == 0) has every quantile at Mu — including the
// p <= 0 and p >= 1 boundaries, where the naive Mu + 0*(±Inf) scaling
// would manufacture a NaN. A negative (or NaN) Sigma returns NaN.
func (n Normal) Quantile(p float64) float64 {
	if !(n.Sigma >= 0) {
		return math.NaN()
	}
	if n.Sigma == 0 {
		if math.IsNaN(p) {
			return math.NaN()
		}
		return n.Mu
	}
	return n.Mu + n.Sigma*Quantile(p)
}

// Add returns the distribution of the sum of two independent normals
// (the paper's eq 4).
func (n Normal) Add(m Normal) Normal {
	return Normal{
		Mu:    n.Mu + m.Mu,
		Sigma: math.Sqrt(n.Sigma*n.Sigma + m.Sigma*m.Sigma),
	}
}

// Shift returns the distribution translated by the constant d.
func (n Normal) Shift(d float64) Normal {
	return Normal{Mu: n.Mu + d, Sigma: n.Sigma}
}

// Scale returns the distribution of c*X. Negative c is allowed; the
// standard deviation stays non-negative.
func (n Normal) Scale(c float64) Normal {
	return Normal{Mu: c * n.Mu, Sigma: math.Abs(c) * n.Sigma}
}

// String renders the distribution as "N(mu, sigma)".
func (n Normal) String() string {
	return fmt.Sprintf("N(%.6g, %.6g)", n.Mu, n.Sigma)
}
