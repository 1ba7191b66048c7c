package nlp

import (
	"math"

	"repro/internal/telemetry"
)

// newtonSolver is a truncated Newton conjugate-gradient inner solver:
// at each iteration the Hessian of the augmented Lagrangian is
// assembled implicitly from exact element Hessians (the LANCELOT-style
// use of the paper's analytical second derivatives), the Newton system
// restricted to the free variables is solved approximately by
// Steihaug-Toint conjugate gradients — CG truncated at a trust-region
// boundary, which also bounds steps along the near-null directions a
// feasible start gives the Gauss-Newton term — and the step is
// globalized by a projected Armijo search with an adaptive radius.
type newtonSolver struct {
	p   *Problem
	st  *almState
	opt Options

	grad, xNew, gNew, d []float64
	r, z, hz            []float64 // CG work vectors
	free                []bool
	// broken latches a non-finite Hessian-vector product within one
	// minimize call: the second-order model is unusable, so the whole
	// inner solve aborts and the outer loop's degradation ladder takes
	// over (rather than silently limping along on steepest descent).
	broken bool
}

func newNewtonSolver(p *Problem, st *almState, opt Options) *newtonSolver {
	st.eng.reserveHessians()
	return &newtonSolver{
		p: p, st: st, opt: opt,
		grad: make([]float64, p.N),
		xNew: make([]float64, p.N),
		gNew: make([]float64, p.N),
		d:    make([]float64, p.N),
		r:    make([]float64, p.N),
		z:    make([]float64, p.N),
		hz:   make([]float64, p.N),
		free: make([]bool, p.N),
	}
}

// buildCache evaluates every element's second-order data at x into the
// engine arena: the local Hessian block weighted by hw, plus for
// active constraints the local gradient contributing the Gauss-Newton
// rank-one term gw * lg lg^T. Every write lands in element-owned arena
// slots, and inequality elements whose multiplier estimate is inactive
// (lambda + rho*c <= 0) are flagged out. All storage is reused across
// iterations; steady state allocates nothing.
func (ns *newtonSolver) buildCache(x []float64) {
	e := ns.st.eng
	e.x = x
	e.dispatch(modeHessCache)
}

// hessVec computes out = H*v restricted to the free variables (masked
// components of v are treated as zero and masked outputs are zeroed).
// The engine computes each element's local H*v contribution into its
// own arena scratch; the fold below scatters them into out in element
// order.
func (ns *newtonSolver) hessVec(v, out []float64) {
	e := ns.st.eng
	e.v, e.free = v, ns.free
	e.dispatch(modeHessVec)
	for i := range out {
		out[i] = 0
	}
	for i := range e.refs {
		r := &e.refs[i]
		if !r.active || !r.touched {
			continue
		}
		hv := e.slabHV[r.off : r.off+r.n]
		for k, idx := range r.el.Vars {
			if ns.free[idx] {
				out[idx] += hv[k]
			}
		}
	}
	// Screen the product: one accumulation pass turns any NaN/Inf entry
	// into a non-finite sum (the x-x != 0 test is true exactly for
	// those), without allocating or branching per entry.
	var acc float64
	for _, o := range out {
		acc += o
	}
	if acc-acc != 0 {
		ns.broken = true
	}
}

func (ns *newtonSolver) minimize(x []float64, tol float64) (int, float64) {
	st := ns.st
	ns.broken = false
	phi := st.merit(x, ns.grad)
	pg := projGradNorm(ns.p, x, ns.grad)
	// Trust radius for the Steihaug CG; adapted across iterations.
	radius := 10.0
	iters := 0
	for ; iters < ns.opt.MaxInner && pg > tol; iters++ {
		if st.stop() {
			break
		}
		// Free variables: not pinned at a bound with an outward
		// gradient.
		for k := range x {
			ns.free[k] = true
			if x[k] <= ns.p.lower(k)+1e-12 && ns.grad[k] > 0 {
				ns.free[k] = false
			}
			if x[k] >= ns.p.upper(k)-1e-12 && ns.grad[k] < 0 {
				ns.free[k] = false
			}
		}
		ns.buildCache(x)

		// Inner attempt loop: shrink the radius on a failed line
		// search rather than giving up — a feasible warm start makes
		// the Gauss-Newton Hessian rank-deficient and the first CG
		// direction can be wildly long.
		progressed := false
		for attempt := 0; attempt < 20; attempt++ {
			ns.cg(radius)
			if ns.broken {
				// A non-finite H*v poisoned the CG state; abort the
				// inner solve so the outer loop can degrade to a
				// first-order method.
				return iters, pg
			}
			var gd float64
			for k := range x {
				gd += ns.grad[k] * ns.d[k]
			}
			if gd >= 0 {
				// Fall back to projected steepest descent clipped to
				// the radius.
				gd = 0
				var norm float64
				for k := range x {
					if ns.free[k] {
						ns.d[k] = -ns.grad[k]
						norm += ns.d[k] * ns.d[k]
					} else {
						ns.d[k] = 0
					}
				}
				norm = math.Sqrt(norm)
				if norm > radius {
					scale := radius / norm
					for k := range ns.d {
						ns.d[k] *= scale
					}
				}
				for k := range x {
					gd += ns.grad[k] * ns.d[k]
				}
				if gd >= 0 {
					break
				}
			}
			phiNew, ok := projectedArmijo(ns.p, st, x, ns.grad, ns.d, ns.xNew, ns.gNew, phi, gd)
			if ok {
				copy(x, ns.xNew)
				copy(ns.grad, ns.gNew)
				phi = phiNew
				pg = projGradNorm(ns.p, x, ns.grad)
				if radius < 1e6 {
					radius *= 1.5
				}
				progressed = true
				if st.rec != nil {
					st.rec.Event("newton", "iter",
						telemetry.I("outer", st.outer),
						telemetry.I("iter", iters+1),
						telemetry.F("phi", phi),
						telemetry.F("pg", pg),
						telemetry.F("radius", radius),
						telemetry.I("attempts", attempt+1),
					)
				}
				break
			}
			radius *= 0.25
			if radius < 1e-10 {
				break
			}
		}
		if !progressed {
			break
		}
	}
	return iters, pg
}

// cg approximately solves H d = -grad on the free variables with
// Steihaug-Toint truncation, leaving the step in ns.d. It terminates
// on the Eisenstat-Walker forcing condition, at the trust-region
// boundary, on a negative-curvature direction (followed to the
// boundary) or at an iteration cap.
func (ns *newtonSolver) cg(radius float64) {
	n := ns.p.N
	d, r, z, hz := ns.d, ns.r, ns.z, ns.hz
	var gNorm float64
	for k := 0; k < n; k++ {
		d[k] = 0
		if ns.free[k] {
			r[k] = -ns.grad[k]
			gNorm += r[k] * r[k]
		} else {
			r[k] = 0
		}
		z[k] = r[k]
	}
	gNorm = math.Sqrt(gNorm)
	if gNorm == 0 {
		return
	}
	// Forcing term: solve to min(0.5, sqrt(gNorm)) * gNorm.
	tol := math.Min(0.5, math.Sqrt(gNorm)) * gNorm
	maxCG := n
	if maxCG > 250 {
		maxCG = 250
	}
	rr := gNorm * gNorm
	var dd float64 // ||d||^2
	for it := 0; it < maxCG; it++ {
		ns.hessVec(z, hz)
		if ns.broken {
			return
		}
		var zHz, zz, dz float64
		for k := 0; k < n; k++ {
			zHz += z[k] * hz[k]
			zz += z[k] * z[k]
			dz += d[k] * z[k]
		}
		if zHz <= 1e-12*zz {
			// Negative or vanishing curvature: follow z to the
			// trust-region boundary (Steihaug's prescription); from
			// the origin this is the steepest-descent direction.
			tau := boundaryStep(dd, dz, zz, radius)
			for k := 0; k < n; k++ {
				d[k] += tau * z[k]
			}
			return
		}
		alpha := rr / zHz
		// Would the step leave the trust region?
		newDD := dd + 2*alpha*dz + alpha*alpha*zz
		if newDD >= radius*radius {
			tau := boundaryStep(dd, dz, zz, radius)
			for k := 0; k < n; k++ {
				d[k] += tau * z[k]
			}
			return
		}
		var rrNew float64
		for k := 0; k < n; k++ {
			d[k] += alpha * z[k]
			r[k] -= alpha * hz[k]
			rrNew += r[k] * r[k]
		}
		dd = newDD
		if math.Sqrt(rrNew) <= tol {
			return
		}
		beta := rrNew / rr
		rr = rrNew
		for k := 0; k < n; k++ {
			z[k] = r[k] + beta*z[k]
		}
	}
}

// boundaryStep returns tau >= 0 with ||d + tau z|| = radius given
// dd = ||d||^2 and dz = d.z, zz = ||z||^2.
func boundaryStep(dd, dz, zz, radius float64) float64 {
	if zz == 0 {
		return 0
	}
	disc := dz*dz + zz*(radius*radius-dd)
	if disc < 0 {
		disc = 0
	}
	return (-dz + math.Sqrt(disc)) / zz
}
