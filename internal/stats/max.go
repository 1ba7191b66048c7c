// Package stats implements the statistical delay operators of
// Jacobs & Berkelaar (DATE 2000): the analytical mean and variance of
// the maximum of two independent normal random variables (the paper's
// equations 10, 12 and 13 — Clark's moment formulas, re-derived in the
// paper's Appendix A), the sum operator (equation 4), and their exact
// first and second derivatives.
//
// The analytical expressions are the paper's enabling contribution:
// they make the stochastic maximum a smooth closed-form function of
// the operand moments, so the gate-sizing nonlinear program has exact
// analytic derivatives and can be solved by a Newton-type method.
//
// All optimization-facing code works in the (mean, variance)
// parameterization because the paper's formulation uses squared
// standard deviations throughout to keep the constraints smooth.
package stats

import (
	"math"

	"repro/internal/ad"
	"repro/internal/dist"
)

// MV holds the first two moments of a random variable in the
// (mean, variance) parameterization used by the sizing formulation.
type MV struct {
	Mu  float64 // mean
	Var float64 // variance (sigma squared), >= 0
}

// Sigma returns the standard deviation sqrt(Var). A slightly negative
// Var — the residue of a catastrophic cancellation upstream — clamps
// to 0 instead of poisoning the caller with sqrt(-eps) = NaN.
func (m MV) Sigma() float64 {
	if m.Var <= 0 {
		return 0
	}
	return math.Sqrt(m.Var)
}

// Normal converts the moment pair to a dist.Normal.
func (m MV) Normal() dist.Normal { return dist.Normal{Mu: m.Mu, Sigma: m.Sigma()} }

// Add returns the moments of A + B for independent A, B (paper eq 4).
func Add(a, b MV) MV { return MV{Mu: a.Mu + b.Mu, Var: a.Var + b.Var} }

// thetaEps is the variance-combination floor below which the
// stochastic max degenerates to the deterministic max. It is an
// absolute threshold on theta = sqrt(varA + varB); the delay unit in
// this module is of order one, so 1e-12 is far below any physically
// meaningful uncertainty yet far above rounding noise.
const thetaEps = 1e-12

// Max2 returns the moments of C = max(A, B) for independent normals
// A, B described by their moment pairs (paper eqs 10, 12, 13).
//
// Means are internally shifted by max(muA, muB) before applying
// Clark's formulas so that the variance, which the textbook form
// computes as a difference of second moments, never suffers
// catastrophic cancellation when one operand dominates.
func Max2(a, b MV) MV {
	// Entry clamp: a negative operand variance (rounding residue) would
	// otherwise reach sqrt(theta2) and turn the whole sweep NaN.
	a.Var = nnegVar(a.Var)
	b.Var = nnegVar(b.Var)
	theta2 := a.Var + b.Var
	if theta2 <= thetaEps*thetaEps {
		// Degenerate: both operands are (numerically) deterministic.
		// On an exact mean tie the larger residual variance wins —
		// the same choice Max2StepInto makes, so taped and untaped sweeps
		// agree on every input.
		switch {
		case a.Mu > b.Mu:
			return MV{Mu: a.Mu, Var: a.Var}
		case b.Mu > a.Mu:
			return MV{Mu: b.Mu, Var: b.Var}
		default:
			return MV{Mu: a.Mu, Var: math.Max(a.Var, b.Var)}
		}
	}
	theta := math.Sqrt(theta2)
	// The built-in max inlines where math.Max is a call. The two differ
	// only on (+Inf, NaN), where math.Max returns +Inf and max NaN; the
	// moments are NaN either way, since am or bm is then NaN.
	shift := max(a.Mu, b.Mu)
	am := a.Mu - shift
	bm := b.Mu - shift
	alpha := (am - bm) / theta

	// The pdf and the core are independent, so their order changes no
	// bit; taking the pdf first measured 3-6% faster per max on x86-64
	// (EXPERIMENTS.md).
	pdf := dist.PDF(alpha)
	cdfP, cdfN := dist.CDFPair(alpha) // Phi(alpha), Phi(-alpha)

	mu := am*cdfP + bm*cdfN + theta*pdf
	ex2 := (a.Var+am*am)*cdfP + (b.Var+bm*bm)*cdfN + (am+bm)*theta*pdf
	v := ex2 - mu*mu
	if v < 0 {
		v = 0
	}
	return MV{Mu: mu + shift, Var: v}
}

// MaxN left-folds Max2 over the operands, exactly as the paper
// combines multi-input maxima "two at a time" (eq 18b). It panics on
// an empty slice because the maximum of nothing is undefined.
func MaxN(ms []MV) MV {
	if len(ms) == 0 {
		panic("stats: MaxN of no operands")
	}
	acc := ms[0]
	for _, m := range ms[1:] {
		acc = Max2(acc, m)
	}
	return acc
}

// Jac2x4 is the Jacobian of (muC, varC) with respect to
// (muA, varA, muB, varB), row-major: row 0 is d muC, row 1 is d varC.
type Jac2x4 [2][4]float64

// Step is the compact form of one Clark max Jacobian, the unit of
// every sweep's adjoint tape: 48 bytes where Jac2x4 takes 64. Two of
// the Jacobian's eight entries repeat (d muC/d varA and d muC/d varB
// are both phi(alpha)/(2 theta)) and two share a term (d varC/d varA
// and d varC/d varB are Phi(±alpha) plus the same phi-term), so six
// values rebuild all eight:
//
//	s[0] = Phi(alpha)            = j[0][0]
//	s[1] = Phi(-alpha)           = j[0][2]
//	s[2] = phi(alpha)/(2 theta)  = j[0][1] = j[0][3]
//	s[3] = d varC/d muA          = j[1][0]
//	s[4] = d varC/d muB          = j[1][2]
//	s[5] = the shared phi-term:  j[1][1] = s[0]+s[5], j[1][3] = s[1]+s[5]
//
// The two sums are the very additions Max2StepInto's Jacobian form
// performs, so a rebuilt entry is bit for bit the Jac2x4 one.
type Step [6]float64

// DVarA returns d varC/d varA, j[1][1]: s[0] + s[5].
func (s *Step) DVarA() float64 { return s[0] + s[5] }

// DVarB returns d varC/d varB, j[1][3]: s[1] + s[5].
func (s *Step) DVarB() float64 { return s[1] + s[5] }

// Jac expands the step into the full Jacobian.
func (s *Step) Jac() Jac2x4 {
	return Jac2x4{
		{s[0], s[2], s[1], s[2]},
		{s[3], s.DVarA(), s[4], s.DVarB()},
	}
}

// Max2Jac returns the moments of C = max(A, B) together with the exact
// analytic Jacobian of (muC, varC) with respect to the four operand
// moments. It is Max2JacInto with the Jacobian returned by value.
func Max2Jac(a, b MV) (c MV, j Jac2x4) {
	c = Max2JacInto(a, b, &j)
	return c, j
}

// Max2JacInto returns the moments of C = max(A, B) and writes the exact
// analytic Jacobian of (muC, varC) with respect to the four operand
// moments through j, overwriting all eight entries: Max2StepInto with
// the step expanded.
func Max2JacInto(a, b MV, j *Jac2x4) MV {
	var s Step
	c := Max2StepInto(a, b, &s)
	*j = s.Jac()
	return c
}

// Max2StepInto returns the moments of C = max(A, B) and writes the
// exact analytic Jacobian of (muC, varC) with respect to the four
// operand moments through s in compact form (see Step), overwriting
// all six entries; the taped sweeps call it once per max, in place on
// their tape. The closed forms follow by differentiating Clark's
// formulas; each entry is written in a shift-invariant arrangement
// (differences of means rather than raw means) for numerical
// stability. At the degenerate point theta -> 0 the operator becomes
// the deterministic max and the Jacobian its (one-sided) selector; on
// an exact tie the derivative is split evenly between the operands,
// the standard subgradient choice.
func Max2StepInto(a, b MV, s *Step) MV {
	// Same entry clamp as Max2, so taped and untaped sweeps keep
	// agreeing on every input including invalid ones.
	a.Var = nnegVar(a.Var)
	b.Var = nnegVar(b.Var)
	theta2 := a.Var + b.Var
	if theta2 <= thetaEps*thetaEps {
		// The selector: s[5] = 0, so d varC/d varA and d varC/d varB
		// equal d muC/d muA and d muC/d muB.
		*s = Step{}
		switch {
		case a.Mu > b.Mu:
			s[0] = 1
			return MV{a.Mu, a.Var}
		case b.Mu > a.Mu:
			s[1] = 1
			return MV{b.Mu, b.Var}
		default:
			s[0], s[1] = 0.5, 0.5
			return MV{a.Mu, math.Max(a.Var, b.Var)}
		}
	}
	theta := math.Sqrt(theta2)
	shift := max(a.Mu, b.Mu) // see Max2 on the built-in max
	am := a.Mu - shift
	bm := b.Mu - shift
	alpha := (am - bm) / theta

	pdf := dist.PDF(alpha) // before the core, as in Max2
	cdfP, cdfN := dist.CDFPair(alpha)

	muS := am*cdfP + bm*cdfN + theta*pdf // shifted mean
	ex2 := (a.Var+am*am)*cdfP + (b.Var+bm*bm)*cdfN + (am+bm)*theta*pdf
	v := ex2 - muS*muS
	if v < 0 {
		v = 0
	}

	// d muC: Phi(alpha), phi(alpha)/(2 theta), Phi(-alpha), same.
	// Halving pdf/theta is exact while the quotient stays normal, and
	// 2*theta is exact, so 0.5*(pdf/theta) is bit for bit
	// pdf/(2*theta) from 2**-1021 up; below that the halving could
	// round differently in the subnormal range, so divide as written
	// (NaN included).
	pdfOverTheta := pdf / theta
	pdfOver2Theta := 0.5 * pdfOverTheta
	if !(pdfOverTheta >= 0x1p-1021) {
		pdfOver2Theta = pdf / (2 * theta)
	}
	s[0] = cdfP
	s[1] = cdfN
	s[2] = pdfOver2Theta

	// d varC, shift-invariant forms (da = muA - muC, db = muB - muC):
	//   d/dmuA = 2 Phi(alpha) da + 2 varA phi(alpha)/theta
	//   d/dmuB = 2 Phi(-alpha) db + 2 varB phi(alpha)/theta
	//   d/dvarA = Phi(alpha) + phi(alpha) (theta(da+db) - alpha(varA-varB)) / (2 theta^2)
	//   d/dvarB = Phi(-alpha) + the same phi-term.
	da := am - muS
	db := bm - muS
	s[3] = 2*cdfP*da + 2*a.Var*pdfOverTheta
	s[4] = 2*cdfN*db + 2*b.Var*pdfOverTheta
	s[5] = pdf * (theta*(da+db) - alpha*(a.Var-b.Var)) / (2 * theta2)
	return MV{Mu: muS + shift, Var: v}
}

// Max2StepPair runs two independent Clark maxes in one call: lane 0
// is Max2StepInto(a0, b0, s0) and lane 1 Max2StepInto(a1, b1, s1),
// and each lane returns and writes exactly those bits. Each Clark max
// is one serial chain — sqrt, divide, exp, the erfc core, the moment
// and Jacobian arithmetic — so a lone max leaves most of the CPU's
// out-of-order window idle. Here every statement of Max2StepInto is
// written once per lane, lane 0 then lane 1, so the two chains sit
// side by side in the instruction stream and overlap. Each lane's
// expressions are Max2StepInto's own, in the same association, and the
// lanes share no value, so no bit of either lane can move. A lane on
// the θ floor sends both lanes to the scalar kernel.
func Max2StepPair(a0, b0 MV, s0 *Step, a1, b1 MV, s1 *Step) (MV, MV) {
	a0.Var = nnegVar(a0.Var)
	b0.Var = nnegVar(b0.Var)
	a1.Var = nnegVar(a1.Var)
	b1.Var = nnegVar(b1.Var)
	theta20 := a0.Var + b0.Var
	theta21 := a1.Var + b1.Var
	if theta20 <= thetaEps*thetaEps || theta21 <= thetaEps*thetaEps {
		return Max2StepInto(a0, b0, s0), Max2StepInto(a1, b1, s1)
	}
	theta0 := math.Sqrt(theta20)
	theta1 := math.Sqrt(theta21)
	shift0 := max(a0.Mu, b0.Mu)
	shift1 := max(a1.Mu, b1.Mu)
	am0 := a0.Mu - shift0
	am1 := a1.Mu - shift1
	bm0 := b0.Mu - shift0
	bm1 := b1.Mu - shift1
	alpha0 := (am0 - bm0) / theta0
	alpha1 := (am1 - bm1) / theta1

	pdf0 := dist.PDF(alpha0)
	pdf1 := dist.PDF(alpha1)
	cdfP0, cdfN0 := dist.CDFPair(alpha0)
	cdfP1, cdfN1 := dist.CDFPair(alpha1)

	muS0 := am0*cdfP0 + bm0*cdfN0 + theta0*pdf0
	muS1 := am1*cdfP1 + bm1*cdfN1 + theta1*pdf1
	ex20 := (a0.Var+am0*am0)*cdfP0 + (b0.Var+bm0*bm0)*cdfN0 + (am0+bm0)*theta0*pdf0
	ex21 := (a1.Var+am1*am1)*cdfP1 + (b1.Var+bm1*bm1)*cdfN1 + (am1+bm1)*theta1*pdf1
	v0 := ex20 - muS0*muS0
	v1 := ex21 - muS1*muS1
	if v0 < 0 {
		v0 = 0
	}
	if v1 < 0 {
		v1 = 0
	}

	// The halving guard of Max2StepInto, per lane.
	pdfOverTheta0 := pdf0 / theta0
	pdfOverTheta1 := pdf1 / theta1
	pdfOver2Theta0 := 0.5 * pdfOverTheta0
	pdfOver2Theta1 := 0.5 * pdfOverTheta1
	if !(pdfOverTheta0 >= 0x1p-1021) {
		pdfOver2Theta0 = pdf0 / (2 * theta0)
	}
	if !(pdfOverTheta1 >= 0x1p-1021) {
		pdfOver2Theta1 = pdf1 / (2 * theta1)
	}
	s0[0], s1[0] = cdfP0, cdfP1
	s0[1], s1[1] = cdfN0, cdfN1
	s0[2], s1[2] = pdfOver2Theta0, pdfOver2Theta1

	da0 := am0 - muS0
	da1 := am1 - muS1
	db0 := bm0 - muS0
	db1 := bm1 - muS1
	s0[3] = 2*cdfP0*da0 + 2*a0.Var*pdfOverTheta0
	s1[3] = 2*cdfP1*da1 + 2*a1.Var*pdfOverTheta1
	s0[4] = 2*cdfN0*db0 + 2*b0.Var*pdfOverTheta0
	s1[4] = 2*cdfN1*db1 + 2*b1.Var*pdfOverTheta1
	s0[5] = pdf0 * (theta0*(da0+db0) - alpha0*(a0.Var-b0.Var)) / (2 * theta20)
	s1[5] = pdf1 * (theta1*(da1+db1) - alpha1*(a1.Var-b1.Var)) / (2 * theta21)
	return MV{Mu: muS0 + shift0, Var: v0}, MV{Mu: muS1 + shift1, Var: v1}
}

// max2HD evaluates the shifted Clark formulas on hyper-dual inputs
// ordered (muA, varA, muB, varB); sel selects the output component:
// 0 for muC, 1 for varC.
func max2HD(x []ad.HyperDual, sel int) ad.HyperDual {
	muA, varA, muB, varB := x[0], x[1], x[2], x[3]
	shift := math.Max(muA.V, muB.V)
	am := muA.AddConst(-shift)
	bm := muB.AddConst(-shift)
	theta := varA.Add(varB).Sqrt()
	alpha := am.Sub(bm).Div(theta)
	cdfP := alpha.NormCDF()
	cdfN := alpha.Neg().NormCDF()
	pdf := alpha.NormPDF()
	mu := am.Mul(cdfP).Add(bm.Mul(cdfN)).Add(theta.Mul(pdf))
	if sel == 0 {
		return mu.AddConst(shift)
	}
	ex2 := varA.Add(am.Sqr()).Mul(cdfP).
		Add(varB.Add(bm.Sqr()).Mul(cdfN)).
		Add(am.Add(bm).Mul(theta).Mul(pdf))
	return ex2.Sub(mu.Sqr())
}

// Degenerate reports whether the pair of operands falls below the
// variance floor at which Max2 switches to the deterministic max.
func Degenerate(a, b MV) bool { return a.Var+b.Var <= thetaEps*thetaEps }

// nnegVar clamps a variance to the non-negative range, treating NaN as
// 0 as well (any comparison with NaN is false, so the <= 0 branch does
// not catch it alone).
func nnegVar(v float64) float64 {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
