package stats

import "math"

// This file addresses the paper's second future-work item (section 7):
// "express the mean and standard deviation of the maximum of multiple
// (more than two) operandi explicitly, rather than as the repeated
// maximum of two operandi". No elementary closed form exists for
// three or more normals, but the exact moments are one-dimensional
// integrals of the product-CDF distribution
//
//	F_max(x) = prod_i F_i(x)
//	E[max^k]  = integral x^k dF_max(x)
//
// evaluated here with adaptive Simpson quadrature to near machine
// precision. ExactMaxN is the reference the left-fold MaxN is measured
// against (see the fold-bias tests and benchmarks): the fold
// approximates every intermediate max as normal, which biases the
// moments slightly; the exact integral has no such assumption beyond
// the independence of the operands.

// ExactMaxN returns the exact mean and variance of the maximum of
// independent normals, by quadrature. Operands with zero variance are
// handled as step factors in the product CDF. It panics on an empty
// slice, like MaxN.
func ExactMaxN(ms []MV) MV {
	if len(ms) == 0 {
		panic("stats: ExactMaxN of no operands")
	}
	if len(ms) == 1 {
		return ms[0]
	}
	// Integration window: generous cover of every operand's support.
	lo, hi := math.Inf(1), math.Inf(-1)
	allPoint := true
	for _, m := range ms {
		s := math.Sqrt(m.Var)
		if s > 0 {
			allPoint = false
		}
		if l := m.Mu - 10*s - 1e-12; l < lo {
			lo = l
		}
		if h := m.Mu + 10*s + 1e-12; h > hi {
			hi = h
		}
	}
	if allPoint {
		best := ms[0]
		for _, m := range ms[1:] {
			if m.Mu > best.Mu {
				best = m
			}
		}
		return MV{Mu: best.Mu, Var: 0}
	}

	// E[max] = hi - integral(F) over [lo, hi] + (lo - lo)*... use the
	// survival/CDF identity to avoid differentiating the product:
	//   E[X]   = hi - int_lo^hi F(x) dx            (X >= lo a.s. here)
	//   E[X^2] = hi^2 - int_lo^hi 2x F(x) dx
	// both derived by parts with F(lo) ~ 0, F(hi) ~ 1.
	F := func(x float64) float64 {
		p := 1.0
		for _, m := range ms {
			p *= m.Normal().CDF(x)
			if p == 0 {
				return 0
			}
		}
		return p
	}
	intF := adaptiveSimpson(F, lo, hi, 1e-12, 48)
	intXF := adaptiveSimpson(func(x float64) float64 { return 2 * x * F(x) }, lo, hi, 1e-12, 48)
	mean := hi - intF
	ex2 := hi*hi - intXF
	v := ex2 - mean*mean
	if v < 0 {
		v = 0
	}
	return MV{Mu: mean, Var: v}
}

// adaptiveSimpson integrates f over [a, b] with the classic recursive
// error control (Richardson on the Simpson halves).
func adaptiveSimpson(f func(float64) float64, a, b, tol float64, depth int) float64 {
	c := 0.5 * (a + b)
	fa, fb, fc := f(a), f(b), f(c)
	s := simpson(fa, fc, fb, b-a)
	return adaptiveSimpsonRec(f, a, b, fa, fb, fc, s, tol, depth)
}

func simpson(fa, fm, fb, h float64) float64 {
	return h / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpsonRec(f func(float64) float64, a, b, fa, fb, fc, whole, tol float64, depth int) float64 {
	c := 0.5 * (a + b)
	lm := 0.5 * (a + c)
	rm := 0.5 * (c + b)
	flm, frm := f(lm), f(rm)
	left := simpson(fa, flm, fc, c-a)
	right := simpson(fc, frm, fb, b-c)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpsonRec(f, a, c, fa, fc, flm, left, tol/2, depth-1) +
		adaptiveSimpsonRec(f, c, b, fc, fb, frm, right, tol/2, depth-1)
}

// FoldBias returns the moment error of the repeated two-operand fold
// against the exact N-way maximum: (muFold - muExact, sigmaFold -
// sigmaExact). A positive mean bias means the fold is pessimistic.
func FoldBias(ms []MV) (muBias, sigmaBias float64) {
	fold := MaxN(ms)
	exact := ExactMaxN(ms)
	return fold.Mu - exact.Mu, fold.Sigma() - exact.Sigma()
}
