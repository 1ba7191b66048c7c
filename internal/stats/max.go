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
		// the same choice Max2JacInto makes, so taped and untaped sweeps
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

// Max2Jac returns the moments of C = max(A, B) together with the exact
// analytic Jacobian of (muC, varC) with respect to the four operand
// moments. It is Max2JacInto with the Jacobian returned by value; the
// sweeps that keep a tape call Max2JacInto and write each step in place.
func Max2Jac(a, b MV) (c MV, j Jac2x4) {
	c = Max2JacInto(a, b, &j)
	return c, j
}

// Max2JacInto returns the moments of C = max(A, B) and writes the exact
// analytic Jacobian of (muC, varC) with respect to the four operand
// moments through j, overwriting all eight entries. The closed forms
// follow by differentiating Clark's formulas; each entry is written in
// a shift-invariant arrangement (differences of means rather than raw
// means) for numerical stability. At the degenerate point theta -> 0
// the operator becomes the deterministic max and the Jacobian its
// (one-sided) selector; on an exact tie the derivative is split evenly
// between the operands, the standard subgradient choice.
func Max2JacInto(a, b MV, j *Jac2x4) MV {
	// Same entry clamp as Max2, so taped and untaped sweeps keep
	// agreeing on every input including invalid ones.
	a.Var = nnegVar(a.Var)
	b.Var = nnegVar(b.Var)
	theta2 := a.Var + b.Var
	if theta2 <= thetaEps*thetaEps {
		*j = Jac2x4{}
		switch {
		case a.Mu > b.Mu:
			j[0][0], j[1][1] = 1, 1
			return MV{a.Mu, a.Var}
		case b.Mu > a.Mu:
			j[0][2], j[1][3] = 1, 1
			return MV{b.Mu, b.Var}
		default:
			j[0][0], j[0][2] = 0.5, 0.5
			j[1][1], j[1][3] = 0.5, 0.5
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
	j[0][0] = cdfP
	j[0][1] = pdfOver2Theta
	j[0][2] = cdfN
	j[0][3] = pdfOver2Theta

	// d varC, shift-invariant forms (da = muA - muC, db = muB - muC):
	//   d/dmuA = 2 Phi(alpha) da + 2 varA phi(alpha)/theta
	//   d/dmuB = 2 Phi(-alpha) db + 2 varB phi(alpha)/theta
	//   d/dvarA = Phi(alpha) + phi(alpha) (theta(da+db) - alpha(varA-varB)) / (2 theta^2)
	//   d/dvarB = Phi(-alpha) + the same phi-term.
	da := am - muS
	db := bm - muS
	j[1][0] = 2*cdfP*da + 2*a.Var*pdfOverTheta
	j[1][2] = 2*cdfN*db + 2*b.Var*pdfOverTheta
	varTerm := pdf * (theta*(da+db) - alpha*(a.Var-b.Var)) / (2 * theta2)
	j[1][1] = cdfP + varTerm
	j[1][3] = cdfN + varTerm
	return MV{Mu: muS + shift, Var: v}
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

// Max2Hessians returns the exact 4x4 Hessians of muC and varC with
// respect to (muA, varA, muB, varB), computed with hyper-dual forward
// AD over the closed-form expressions (machine precision, no finite
// differences). It is used by the full-space sizing formulation to
// supply exact second derivatives to the Newton inner solver, playing
// the role of LANCELOT's exact element Hessians.
//
// The point must be non-degenerate (varA + varB above the internal
// floor); degenerate maxima have no curvature and callers should pass
// a zero Hessian there.
func Max2Hessians(a, b MV) (hMu, hVar [4][4]float64) {
	x := []float64{a.Mu, a.Var, b.Mu, b.Var}
	_, _, hm := ad.Hessian(func(v []ad.HyperDual) ad.HyperDual { return max2HD(v, 0) }, x)
	_, _, hv := ad.Hessian(func(v []ad.HyperDual) ad.HyperDual { return max2HD(v, 1) }, x)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			hMu[i][j] = hm[i][j]
			hVar[i][j] = hv[i][j]
		}
	}
	return hMu, hVar
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
